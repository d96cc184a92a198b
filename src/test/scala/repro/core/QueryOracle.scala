package repro.core

/** The straightforward Algorithm 2 kernels that `HdQuery` replaced, kept as
  * reference oracles: a window that subtracts both full-width differences on
  * every step, a filter that sorts the whole window, and a re-rank over a
  * boxed set with `Distance.l2`. The fast kernels must agree with these bit
  * for bit.
  */
object QueryOracle {

  def selectWindow(keys: Array[Array[Byte]], qkey: Array[Byte], alpha: Int): (Int, Int) = {
    if (keys.isEmpty) return (0, 0)
    val pos = HdQuery.lowerBound(keys, qkey)
    val dl = new Array[Byte](qkey.length)
    val dr = new Array[Byte](qkey.length)
    var l = pos - 1
    var r = pos
    var taken = 0
    while (taken < alpha && (l >= 0 || r < keys.length)) {
      val takeLeft =
        if (l < 0) false
        else if (r >= keys.length) true
        else {
          Hilbert.subtract(qkey, keys(l), dl)
          Hilbert.subtract(keys(r), qkey, dr)
          Hilbert.compareKeys(dl, dr) <= 0
        }
      if (takeLeft) l -= 1 else r += 1
      taken += 1
    }
    (l + 1, r)
  }

  private def orderByBound(n: Int, bound: Int => Double): Array[Long] = {
    val packed = new Array[Long](n)
    var i = 0
    while (i < n) {
      packed(i) = (java.lang.Float.floatToIntBits(bound(i).toFloat).toLong << 32) | i.toLong
      i += 1
    }
    java.util.Arrays.sort(packed)
    packed
  }

  def filterTree(ids: Array[Long], refdists: Int => Array[Float], dq: Array[Double],
                 refMatrix: Array[Array[Double]], p: QueryParams): Array[Long] = {
    val n = ids.length
    val byTri = orderByBound(n, i => HdQuery.triBound(dq, refdists(i)))
    if (!p.usePtolemaic) {
      byTri.take(math.min(n, p.gamma)).map(pk => ids((pk & 0xffffffffL).toInt))
    } else {
      val beta = byTri.take(math.min(n, p.beta)).map(pk => (pk & 0xffffffffL).toInt)
      val byPto = orderByBound(beta.length, j => HdQuery.ptolemaicBound(dq, refdists(beta(j)), refMatrix))
      byPto.take(math.min(beta.length, p.gamma)).map(pk => ids(beta((pk & 0xffffffffL).toInt)))
    }
  }

  def finalizeAnswer(cands: Set[Long], q: Array[Float], getVec: Long => Array[Float],
                     k: Int): Array[(Long, Double)] = {
    val ord  = Ordering.by[(Long, Double), (Double, Long)] { case (id, s) => (s, id) }
    val heap = new scala.collection.mutable.PriorityQueue[(Long, Double)]()(ord)
    cands.foreach { id =>
      val e = id -> Distance.l2(getVec(id), q)
      if (heap.size < k) heap.enqueue(e)
      else if (ord.lt(e, heap.head)) { heap.dequeue(); heap.enqueue(e) }
    }
    heap.dequeueAll.toArray.reverse
  }

  /** The candidate ids (after dropping deleted ones), the answer and the
    * stats of the pre-change `searchLocal`.
    */
  def searchLocal(model: HdIndexModel, q: Array[Float], p: QueryParams,
                  getVec: Long => Array[Float]): (Set[Long], Array[(Long, Double)], QueryStats) = {
    val cfg = model.cfg
    val dq  = model.refs.map(r => Distance.l2(q, r))
    var pages = 0L
    val cands = scala.collection.mutable.Set.empty[Long]
    model.trees.indices.foreach { t =>
      val tree  = model.trees(t)
      val qkey  = Hilbert(tree.width, cfg.omega).encodeVector(q, tree.fromDim, cfg.lo, cfg.hi)
      val (s, e) = selectWindow(tree.keys, qkey, p.alpha)
      val ids = java.util.Arrays.copyOfRange(tree.ids, s, e)
      cands ++= filterTree(ids, i => model.refdistsById(ids(i).toInt), dq, model.refMatrix, p)
      pages += model.treeHeight(t) + (e - s + model.leafOrder(t) - 1) / model.leafOrder(t)
    }
    cands --= model.deleted
    val ans = finalizeAnswer(cands.toSet, q, getVec, p.k)
    (cands.toSet, ans, QueryStats(pages, cands.size.toLong, cands.size))
  }
}
