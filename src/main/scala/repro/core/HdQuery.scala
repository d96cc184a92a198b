package repro.core

import org.apache.spark.sql.SparkSession
import repro.VecRow

/** Query-time parameters (Algo. 2). Paper recommendations (Sec. 5.2):
  * triangular-only filtering with α/γ = 4; when Ptolemaic is enabled,
  * α/β = 1 and β/γ = 4.
  */
final case class QueryParams(k: Int, alpha: Int, beta: Int, gamma: Int,
                             usePtolemaic: Boolean = false)

object QueryParams {
  /** Recommended setting for a dataset of size n: α = 4096 scaled with n
    * (the paper's α at SIFT1M examined ~0.4% of the DB; we keep the α/γ = 4
    * ratio and never let α drop below 16k-neighbourhood of k).
    */
  def recommended(k: Int, alpha: Int, usePtolemaic: Boolean = false): QueryParams =
    if (usePtolemaic) QueryParams(k, alpha, alpha, math.max(k, alpha / 4), usePtolemaic = true)
    else QueryParams(k, alpha, math.max(k, alpha / 4), math.max(k, alpha / 4))
}

/** Per-query cost counters using the paper's disk model (Sec. 4.4.1):
  * leaf pages touched (tree descents + sequential leaf scan of the α-window)
  * and random accesses for the κ candidate descriptors.
  */
final case class QueryStats(leafPages: Long, randomAccesses: Long, kappa: Int)

/** kANN querying over a built HD-Index (Algo. 2). Two equivalent paths:
  *
  *  - [[searchLocal]] walks the driver-side sorted trees (the per-query
  *    timing path — one binary search + window scan per tree);
  *  - [[searchSpark]] runs the candidate-window retrieval as a distributed
  *    `mapPartitions` scan over the range-partitioned index Dataset with
  *    per-partition pruning, then applies the identical filter pipeline.
  *
  * A test asserts both return identical answers.
  */
object HdQuery {

  // ---- lower bounds ----------------------------------------------------

  /** Eq. 5: best triangular lower bound over the m references. */
  def triBound(dq: Array[Double], rd: Array[Float]): Double = {
    var best = 0.0
    var i = 0
    while (i < dq.length) {
      val b = math.abs(dq(i) - rd(i))
      if (b > best) best = b
      i += 1
    }
    best
  }

  /** Eq. 6: best Ptolemaic lower bound over the (m choose 2) reference pairs. */
  def ptolemaicBound(dq: Array[Double], rd: Array[Float], refMatrix: Array[Array[Double]]): Double = {
    var best = 0.0
    var i = 0
    while (i < dq.length) {
      var j = i + 1
      while (j < dq.length) {
        val denom = refMatrix(i)(j)
        if (denom > 0) {
          val b = math.abs(dq(i) * rd(j) - dq(j) * rd(i)) / denom
          if (b > best) best = b
        }
        j += 1
      }
      i += 1
    }
    best
  }

  // ---- window retrieval -------------------------------------------------

  /** Index of the first key >= qkey (lower bound) in a sorted key array. */
  def lowerBound(keys: Array[Array[Byte]], qkey: Array[Byte]): Int = {
    var lo = 0
    var hi = keys.length
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (Hilbert.compareKeys(keys(mid), qkey) < 0) lo = mid + 1 else hi = mid
    }
    lo
  }

  /** The leading 8 bytes of a key as an unsigned big-endian word; keys
    * shorter than 8 bytes are zero-padded on the right.
    */
  private def leadingWord(key: Array[Byte]): Long = {
    var w = 0L
    var i = 0
    while (i < 8) {
      w = (w << 8) | (if (i < key.length) key(i) & 0xffL else 0L)
      i += 1
    }
    w
  }

  /** The α entries nearest to qkey in one-dimensional key order: a
    * contiguous window around the insertion point, grown outward one entry
    * at a time toward the numerically closer side (ties go left). Returns
    * [start, end) over `keys`.
    *
    * Each step compares dl = qkey − keys(l) with dr = keys(r) − qkey. The
    * leading word of a difference is the difference of the leading words,
    * minus 1 when the low bytes borrow, so leading-word differences two or
    * more apart decide the step alone. Only near-ties compute the full-width
    * differences. Each side's difference is cached and recomputed only when
    * that side moves.
    */
  def selectWindow(keys: Array[Array[Byte]], qkey: Array[Byte], alpha: Int): (Int, Int) = {
    if (keys.isEmpty) return (0, 0)
    val pos = lowerBound(keys, qkey)
    val hq = leadingWord(qkey)
    // keys(l) < qkey <= keys(r) by construction, so both differences are
    // non-negative and compare as unsigned words, or byte-wise at full width
    val dl = new Array[Byte](qkey.length)
    val dr = new Array[Byte](qkey.length)
    var l = pos - 1
    var r = pos
    var hl = if (l >= 0) hq - leadingWord(keys(l)) else 0L
    var hr = if (r < keys.length) leadingWord(keys(r)) - hq else 0L
    var dlFresh, drFresh = false
    var taken = 0
    while (taken < alpha && (l >= 0 || r < keys.length)) {
      val takeLeft =
        if (l < 0) false
        else if (r >= keys.length) true
        else {
          val c = java.lang.Long.compareUnsigned(hl, hr)
          val gap = if (c < 0) hr - hl else hl - hr
          if (java.lang.Long.compareUnsigned(gap, 1L) > 0) c < 0
          else {
            if (!dlFresh) { Hilbert.subtract(qkey, keys(l), dl); dlFresh = true }
            if (!drFresh) { Hilbert.subtract(keys(r), qkey, dr); drFresh = true }
            Hilbert.compareKeys(dl, dr) <= 0
          }
        }
      if (takeLeft) {
        l -= 1
        if (l >= 0) hl = hq - leadingWord(keys(l))
        dlFresh = false
      } else {
        r += 1
        if (r < keys.length) hr = leadingWord(keys(r)) - hq
        drFresh = false
      }
      taken += 1
    }
    (l + 1, r)
  }

  // ---- filter and re-rank (shared by both paths) ------------------------

  /** Rearranges a(0 until n) so that a(0 until g) holds its g smallest
    * values, in no particular order: quickselect with a median-of-three
    * pivot that sorts what is left after too many rounds, so the worst case
    * stays O(n log n).
    */
  private[core] def selectSmallest(a: Array[Long], n: Int, g: Int): Unit = {
    val nth = g - 1
    var lo = 0
    var hi = n - 1
    var rounds = 2 * (32 - Integer.numberOfLeadingZeros(n))
    while (lo < hi && nth >= lo && nth <= hi) {
      if (rounds == 0) { java.util.Arrays.sort(a, lo, hi + 1); return }
      rounds -= 1
      val mid = (lo + hi) >>> 1
      val x = a(lo); val y = a(mid); val z = a(hi)
      val pivot = math.max(math.min(x, y), math.min(math.max(x, y), z))
      var i = lo
      var j = hi
      while (i <= j) {
        while (a(i) < pivot) i += 1
        while (a(j) > pivot) j -= 1
        if (i <= j) {
          val t = a(i); a(i) = a(j); a(j) = t
          i += 1; j -= 1
        }
      }
      // a(lo..j) <= pivot <= a(i..hi); entries between equal the pivot
      if (nth <= j) hi = j
      else if (nth >= i) lo = i
      else return
    }
  }

  /** A bound packed with a window position: the float bits of a
    * non-negative bound order like the bound, and the position breaks ties,
    * i.e. (bound, hilbert key, id) order, identically in both paths.
    */
  private def pack(bound: Double, pos: Int): Long =
    (java.lang.Float.floatToIntBits(bound.toFloat).toLong << 32) | pos.toLong

  private def unpack(packed: Long): Int = (packed & 0xffffffffL).toInt

  /** The candidate ids of one query: a dense bitset over the ids [0, n)
    * for the union, and the distinct ids in the order they arrived. The
    * filter's survivors arrive first from the first tree; re-ranked in that
    * order, they tighten the heap's bound sooner than ids in ascending order.
    */
  private final class Candidates(n: Int, capacity: Int) {
    private val bits = new Array[Long]((n + 63) >>> 6)
    private val ids  = new Array[Long](capacity)
    private var added = 0
    private var count = 0

    /** Distinct ids added and not dropped: κ. */
    def size: Int = count

    def add(id: Long): Unit = {
      val w = (id >>> 6).toInt
      if ((bits(w) & (1L << id)) == 0) {
        bits(w) |= 1L << id
        ids(added) = id
        added += 1
        count += 1
      }
    }

    private def has(id: Long): Boolean = (bits((id >>> 6).toInt) & (1L << id)) != 0

    /** Sec. 3.6: marked objects are never answers. They are dropped after
      * the filter, so they still take filter slots.
      */
    def drop(deleted: scala.collection.Set[Long]): Unit =
      deleted.foreach { id =>
        if (id >= 0 && id < n && has(id)) { bits((id >>> 6).toInt) &= ~(1L << id); count -= 1 }
      }

    /** Algo. 2 lines 11–16: fetch every candidate's descriptor and keep the
      * k nearest by exact distance, ascending by (distance, id). Distances
      * are computed four at a time against the heap's bound at the start of
      * each four; the bound only falls, so an abandoned candidate is beyond
      * the final top k too.
      */
    def rank(q: Array[Float], getVec: Long => Array[Float], k: Int): Array[(Long, Double)] = {
      val live = new Array[Long](count)
      var m = 0
      var j = 0
      while (j < added) {
        if (has(ids(j))) { live(m) = ids(j); m += 1 }
        j += 1
      }
      val top  = new Distance.TopK(k)
      val dist = new Array[Double](4)
      j = 0
      while (j < m) {
        // the last four repeats its final candidate in the unused lanes
        val v0 = getVec(live(j))
        val v1 = if (j + 1 < m) getVec(live(j + 1)) else v0
        val v2 = if (j + 2 < m) getVec(live(j + 2)) else v1
        val v3 = if (j + 3 < m) getVec(live(j + 3)) else v2
        Distance.l2Bounded4(v0, v1, v2, v3, q, top.bound, dist)
        var x = 0
        while (x < 4 && j < m) { top.offer(live(j), dist(x)); x += 1; j += 1 }
      }
      top.result()
    }
  }

  /** Algo. 2 lines 5–10 for one tree: the window ids(s until e) ->
    * triangular filter -> (optional) Ptolemaic filter -> the γ survivors,
    * added to `out`. `work` and `work2` are scratch of at least e − s slots.
    * Only the β that go on to the Ptolemaic filter are sorted, because its
    * ties break by their triangular order; the survivors join a set.
    */
  private def filterWindow(ids: Array[Long], s: Int, e: Int, refdistsById: Array[Array[Float]],
                           dq: Array[Double], refMatrix: Array[Array[Double]], p: QueryParams,
                           work: Array[Long], work2: Array[Long], out: Candidates): Unit = {
    val w = e - s
    val kept = math.min(w, if (p.usePtolemaic) p.beta else p.gamma)
    var i = 0
    while (i < w) {
      work(i) = pack(triBound(dq, refdistsById(ids(s + i).toInt)), i)
      i += 1
    }
    selectSmallest(work, w, kept)
    if (!p.usePtolemaic) {
      i = 0
      while (i < kept) { out.add(ids(s + unpack(work(i)))); i += 1 }
    } else {
      java.util.Arrays.sort(work, 0, kept)
      var j = 0
      while (j < kept) {
        work2(j) = pack(ptolemaicBound(dq, refdistsById(ids(s + unpack(work(j))).toInt), refMatrix), j)
        j += 1
      }
      val g = math.min(kept, p.gamma)
      selectSmallest(work2, kept, g)
      j = 0
      while (j < g) { out.add(ids(s + unpack(work(unpack(work2(j)))))); j += 1 }
    }
  }

  /** Room for the union of the τ trees' survivors, at most min(α, γ) each. */
  private def candidates(model: HdIndexModel, p: QueryParams): Candidates = {
    val n = model.n.toInt
    new Candidates(n, math.min(n.toLong, model.trees.length.toLong * math.min(p.alpha, p.gamma)).toInt)
  }

  /** The API edge of both query paths: a wrong query fails here instead of
    * returning k answers with NaN distances.
    */
  private def checkQuery(cfg: HdIndexConfig, q: Array[Float], p: QueryParams): Unit = {
    require(q.length == cfg.dim, s"query has ${q.length} dimensions, the index ${cfg.dim}")
    require(q.forall(v => !v.isNaN && !v.isInfinite), "query has a NaN or infinite coordinate")
    require(p.k >= 1, s"k must be at least 1, got ${p.k}")
    require(p.alpha >= 1, s"alpha must be at least 1, got ${p.alpha}")
    require(p.gamma >= 1, s"gamma must be at least 1, got ${p.gamma}")
  }

  // ---- local path -------------------------------------------------------

  def searchLocal(model: HdIndexModel, q: Array[Float], p: QueryParams,
                  getVec: Long => Array[Float]): (Array[(Long, Double)], QueryStats) = {
    val cfg = model.cfg
    checkQuery(cfg, q, p)
    val dq  = model.refs.map(r => Distance.l2(q, r))
    val scratch = math.min(p.alpha.toLong, model.n).toInt
    val work  = new Array[Long](scratch)
    val work2 = if (p.usePtolemaic) new Array[Long](scratch) else work
    val cands = candidates(model, p)
    var pages = 0L
    var t = 0
    while (t < model.trees.length) {
      val tree  = model.trees(t)
      val qkey  = Hilbert(tree.width, cfg.omega).encodeVector(q, tree.fromDim, cfg.lo, cfg.hi)
      val (s, e) = selectWindow(tree.keys, qkey, p.alpha)
      filterWindow(tree.ids, s, e, model.refdistsById, dq, model.refMatrix, p, work, work2, cands)
      pages += model.treeHeight(t) + (e - s + model.leafOrder(t) - 1) / model.leafOrder(t)
      t += 1
    }
    cands.drop(model.deleted)
    val ans = cands.rank(q, getVec, p.k)
    (ans, QueryStats(pages, cands.size.toLong, cands.size))
  }

  // ---- distributed path -------------------------------------------------

  /** Distributed candidate retrieval: each index partition (a (treeId, hkey)
    * range) scans only its own entries, emitting for every query the ≤ 2α
    * entries adjacent to the query key's local insertion point. The union of
    * these per-partition runs provably contains the global α-window, which
    * is then re-selected with the same [[selectWindow]] and filtered with
    * the same pipeline, so results match [[searchLocal]] exactly.
    *
    * The Dataset is the build-time form of the index, so a model that has
    * had inserts since its build is rejected rather than answered without
    * the inserted objects.
    */
  def searchSpark(spark: SparkSession, model: HdIndexModel, queries: Array[VecRow],
                  p: QueryParams, getVec: Long => Array[Float]): Array[Array[(Long, Double)]] = {
    import spark.implicits._
    val cfg  = model.cfg
    require(model.entriesN == model.n,
      s"searchSpark reads the build-time index Dataset, which holds ${model.entriesN} of the " +
      s"model's ${model.n} objects: rebuild the index after inserts, or use searchLocal")
    queries.foreach(qr => checkQuery(cfg, qr.vec, p))
    val qKeys: Array[Array[Array[Byte]]] = queries.map { qr =>
      model.trees.map(tr => Hilbert(tr.width, cfg.omega).encodeVector(qr.vec, tr.fromDim, cfg.lo, cfg.hi))
    }
    val bQKeys = spark.sparkContext.broadcast(qKeys)
    val alpha  = p.alpha

    // (queryIdx, treeId, hkey, id)
    val windows = model.entries.mapPartitions { it =>
      val es = it.toArray // partition is already sorted by (treeId, hkey, id)
      val byTree = es.zipWithIndex.groupBy(_._1.treeId)
      val qk = bQKeys.value
      byTree.iterator.flatMap { case (tid, arr) =>
        val keys = arr.map(_._1.hkey)
        (qk.indices).iterator.flatMap { qi =>
          val pos = lowerBound(keys, qk(qi)(tid))
          val s = math.max(0, pos - alpha)
          val e = math.min(keys.length, pos + alpha)
          (s until e).iterator.map { i =>
            val en = arr(i)._1
            (qi, tid, en.hkey, en.id)
          }
        }
      }
    }.collect()

    // the Dataset holds the model's objects, whose reference distances the
    // by-id table holds too
    val byQuery = windows.groupBy(_._1)
    queries.indices.toArray.map { qi =>
      val dq = model.refs.map(r => Distance.l2(queries(qi).vec, r))
      val cands = candidates(model, p)
      val perTree = byQuery.getOrElse(qi, Array.empty).groupBy(_._2)
      model.trees.foreach { tr =>
        val es = perTree.getOrElse(tr.treeId, Array.empty)
          .sortWith { (a, b) =>
            val c = Hilbert.compareKeys(a._3, b._3)
            if (c != 0) c < 0 else a._4 < b._4
          }
        val keys = es.map(_._3)
        val (s, e) = selectWindow(keys, qKeys(qi)(tr.treeId), p.alpha)
        filterWindow(es.map(_._4), s, e, model.refdistsById, dq, model.refMatrix, p,
                     new Array[Long](e - s), new Array[Long](e - s), cands)
      }
      cands.drop(model.deleted)
      cands.rank(queries(qi).vec, getVec, p.k)
    }
  }
}
