package repro.core

/** Euclidean (L2) distance kernels and small top-k helpers shared by the
  * index and every baseline.
  *
  * Vectors are `Array[Float]` throughout (half the memory of doubles at the
  * 100–1400 dimensionalities the paper evaluates); accumulation is in Double
  * so results are stable enough for the DuckDB oracle's 1e-6 canonicalizer.
  */
object Distance {

  /** Squared L2 distance. Hot path — plain while loop, no allocation. */
  def l2sq(a: Array[Float], b: Array[Float]): Double = {
    require(a.length == b.length, s"dim mismatch ${a.length} vs ${b.length}")
    var s = 0.0
    var i = 0
    while (i < a.length) {
      val d = a(i).toDouble - b(i).toDouble
      s += d * d
      i += 1
    }
    s
  }

  /** L2 distance. */
  def l2(a: Array[Float], b: Array[Float]): Double = math.sqrt(l2sq(a, b))

  /** Squared L2 on a dimension slice `[from, until)` — used by per-partition
    * Hilbert subspaces and PQ sub-quantizers.
    */
  def l2sqSlice(a: Array[Float], b: Array[Float], from: Int, until: Int): Double = {
    var s = 0.0
    var i = from
    while (i < until) {
      val d = a(i).toDouble - b(i).toDouble
      s += d * d
      i += 1
    }
    s
  }

  /** L2 distances of a0..a3 to b, into out(0..3), with early abandoning.
    * The four sums are independent and each adds its terms in the order of
    * [[l2]], so the processor overlaps them and every distance that runs to
    * the end equals [[l2]] bit for bit. Once all four partial roots exceed
    * `limit` it stops and writes those roots, which are lower bounds of the
    * distances and greater than `limit`. Roots are compared, not squares
    * against `limit * limit`, whose rounding could drop a vector that ties
    * the limit and wins on id.
    */
  def l2Bounded4(a0: Array[Float], a1: Array[Float], a2: Array[Float], a3: Array[Float],
                 b: Array[Float], limit: Double, out: Array[Double]): Unit = {
    val n = b.length
    require(a0.length == n && a1.length == n && a2.length == n && a3.length == n,
            s"dim mismatch: ${a0.length}, ${a1.length}, ${a2.length}, ${a3.length} vs $n")
    var s0, s1, s2, s3 = 0.0
    var i = 0
    var abandoned = false
    while (i < n && !abandoned) {
      val end = math.min(n, i + 32)
      while (i < end) {
        val x = b(i).toDouble
        val d0 = a0(i).toDouble - x
        val d1 = a1(i).toDouble - x
        val d2 = a2(i).toDouble - x
        val d3 = a3(i).toDouble - x
        s0 += d0 * d0
        s1 += d1 * d1
        s2 += d2 * d2
        s3 += d3 * d3
        i += 1
      }
      abandoned = math.sqrt(math.min(math.min(s0, s1), math.min(s2, s3))) > limit
    }
    out(0) = math.sqrt(s0)
    out(1) = math.sqrt(s1)
    out(2) = math.sqrt(s2)
    out(3) = math.sqrt(s3)
  }

  /** Bounded max-heap that keeps the k smallest (score, id) pairs, ties
    * broken by id, on primitive arrays. The root is the worst of the kept.
    */
  final class TopK(k: Int) {
    require(k >= 0, s"k must be non-negative, got $k")
    private val scores = new Array[Double](k)
    private val ids    = new Array[Long](k)
    private var size   = 0

    /** The score a new pair must not exceed to enter: +inf until k are kept. */
    def bound: Double = if (size < k) Double.PositiveInfinity else scores(0)

    def offer(id: Long, score: Double): Unit =
      if (size < k) {
        var i = size
        size += 1
        while (i > 0 && less(scores((i - 1) >>> 1), ids((i - 1) >>> 1), score, id)) {
          val parent = (i - 1) >>> 1
          scores(i) = scores(parent); ids(i) = ids(parent)
          i = parent
        }
        scores(i) = score; ids(i) = id
      } else if (k > 0 && less(score, id, scores(0), ids(0))) siftDown(score, id, size)

    /** The kept pairs, ascending by (score, id). Empties the heap. */
    def result(): Array[(Long, Double)] = {
      val out = new Array[(Long, Double)](size)
      while (size > 0) {
        size -= 1
        out(size) = (ids(0), scores(0))
        siftDown(scores(size), ids(size), size)
      }
      out
    }

    /** (s1, id1) < (s2, id2): by score, then by id. */
    private def less(s1: Double, id1: Long, s2: Double, id2: Long): Boolean = {
      val c = java.lang.Double.compare(s1, s2)
      c < 0 || (c == 0 && id1 < id2)
    }

    /** Places (s, id) at the root of the first n slots and restores the heap. */
    private def siftDown(s: Double, id: Long, n: Int): Unit = {
      var i = 0
      var c = 1
      while (c < n) {
        if (c + 1 < n && less(scores(c), ids(c), scores(c + 1), ids(c + 1))) c += 1
        if (less(s, id, scores(c), ids(c))) {
          scores(i) = scores(c); ids(i) = ids(c)
          i = c
          c = 2 * i + 1
        } else c = n
      }
      scores(i) = s; ids(i) = id
    }
  }

  /** ids of the k smallest scores, ties broken by id, ascending by (score, id).
    * O(n log k) via [[TopK]].
    */
  def topK(scored: Iterator[(Long, Double)], k: Int): Array[(Long, Double)] = {
    val heap = new TopK(k)
    scored.foreach { case (id, s) => heap.offer(id, s) }
    heap.result()
  }

  /** Merge two already-sorted top-k lists into one sorted top-k list. */
  def mergeTopK(a: Array[(Long, Double)], b: Array[(Long, Double)], k: Int): Array[(Long, Double)] =
    topK((a ++ b).distinct.iterator, k)
}
