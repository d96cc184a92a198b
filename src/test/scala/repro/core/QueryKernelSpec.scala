package repro.core

import org.scalacheck.Gen
import repro.{SparkSpec, TestFixtures, VecRow, VectorData}
import repro.PropHelpers.forAllSamples
import repro.baselines.LinearScan

/** The query kernels of `HdQuery` against the reference oracles of
  * [[QueryOracle]]: identical windows, survivor sets, answers and stats.
  */
class QueryKernelSpec extends SparkSpec {

  // --- window selection -----------------------------------------------------

  private val widths = Seq(1, 7, 8, 9, 16, 128)

  private def toKey(x: BigInt, width: Int): Array[Byte] = {
    val raw = x.toByteArray.takeRight(width)
    Array.fill[Byte](width - raw.length)(0) ++ raw
  }

  /** A sorted key set of one width around a query key, built to hit the
    * near-ties of the leading-word comparison: keys whose leading word is
    * within 3 of the query's and whose low bytes are 0, 1, all-ones, near
    * the query's or random (the borrow cases), keys equal to the query,
    * duplicates, and uniform keys.
    */
  private def windowCase(seed: Long): (Array[Array[Byte]], Array[Byte], Int) = {
    val rng      = new scala.util.Random(seed)
    val width    = widths(rng.nextInt(widths.length))
    val lowBits  = 8 * math.max(0, width - 8)
    val wordBits = 8 * math.min(8, width)
    val unit     = BigInt(1) << lowBits
    val top      = BigInt(1) << (8 * width)
    def low(): BigInt =
      if (lowBits == 0) BigInt(0)
      else rng.nextInt(6) match {
        case 0 => BigInt(rng.nextInt(2))
        case 1 => unit - 1 - rng.nextInt(2)
        case _ => BigInt(lowBits, rng)
      }
    val hq = rng.nextInt(4) match {
      case 0 => BigInt(rng.nextInt(2))
      case 1 => (BigInt(1) << wordBits) - 1 - rng.nextInt(2)
      case _ => BigInt(wordBits, rng)
    }
    val q = hq * unit + low()
    def near(): BigInt = {
      val lo = if (rng.nextInt(4) == 0) q.mod(unit) + rng.nextInt(3) - 1 else low()
      ((hq + rng.nextInt(7) - 3) * unit + lo).max(0).min(top - 1)
    }
    val n = rng.nextInt(60)
    val xs = scala.collection.mutable.ArrayBuffer.empty[BigInt]
    while (xs.length < n) {
      xs += (rng.nextInt(6) match {
        case 0 => BigInt(8 * width, rng)
        case 1 => q
        case 2 if xs.nonEmpty => xs(rng.nextInt(xs.length))
        case _ => near()
      })
    }
    val keys = xs.map(toKey(_, width)).toArray
    java.util.Arrays.sort(keys, Hilbert.keyOrdering)
    val alpha = rng.nextInt(4) match {
      case 0 => 1 + rng.nextInt(3)
      case 1 => n + rng.nextInt(3)
      case _ => 1 + rng.nextInt(math.max(1, n))
    }
    (keys, toKey(q, width), alpha)
  }

  test("selectWindow equals the oracle on near-tie keys of widths 1, 7, 8, 9, 16 and 128") {
    forAllSamples(Gen.choose(0L, Long.MaxValue), n = 3000) { seed =>
      val (keys, q, alpha) = windowCase(seed)
      assert(HdQuery.selectWindow(keys, q, alpha) == QueryOracle.selectWindow(keys, q, alpha),
             s"case seed $seed")
    }
  }

  test("selectWindow equals the oracle for a query before or after every key, and alpha >= n") {
    val rng = new scala.util.Random(5)
    for (width <- widths; n <- Seq(1, 2, 9, 40)) {
      val keys = Array.fill(n)(Array.fill(width)(rng.nextInt(256).toByte))
      java.util.Arrays.sort(keys, Hilbert.keyOrdering)
      val shared = keys(n / 2).clone() // shares every leading byte with a key
      for (q <- Seq(Array.fill[Byte](width)(0), Array.fill[Byte](width)(-1), shared);
           alpha <- Seq(1, n / 2 + 1, n, n + 5)) {
        assert(HdQuery.selectWindow(keys, q, alpha) == QueryOracle.selectWindow(keys, q, alpha),
               s"width $width n $n alpha $alpha")
      }
    }
  }

  test("selectWindow equals the oracle on all-duplicate keys") {
    for (width <- widths) {
      val keys = Array.fill(12)(Array.fill[Byte](width)(7))
      for (q <- Seq(Array.fill[Byte](width)(7), Array.fill[Byte](width)(6), Array.fill[Byte](width)(8));
           alpha <- Seq(1, 5, 12, 20))
        assert(HdQuery.selectWindow(keys, q, alpha) == QueryOracle.selectWindow(keys, q, alpha))
    }
  }

  // --- filter selection -----------------------------------------------------

  test("selectSmallest moves exactly the g smallest values to the front") {
    val gen = for {
      xs <- Gen.listOf(Gen.choose(-20L, 20L))
      g  <- Gen.choose(0, xs.length)
    } yield (xs.toArray, g)
    forAllSamples(gen, n = 500) { case (xs, g) =>
      val a = xs.clone()
      HdQuery.selectSmallest(a, a.length, g)
      assert(a.take(g).sorted.toSeq == xs.sorted.take(g).toSeq)
      assert(a.sorted.toSeq == xs.sorted.toSeq)
    }
  }

  // --- whole query path -------------------------------------------------------

  /** Answers, candidate sets (the ids fetched for re-rank) and stats of
    * `searchLocal` equal the oracle's, with distances compared bit for bit.
    */
  private def assertMatchesOracle(model: HdIndexModel, qs: Array[Array[Float]], p: QueryParams,
                                  getVec: Long => Array[Float]): Unit =
    qs.indices.foreach { qi =>
      val fetched = scala.collection.mutable.Set.empty[Long]
      val (ans, stats) = HdQuery.searchLocal(model, qs(qi), p, id => { fetched += id; getVec(id) })
      val (cands, want, wantStats) = QueryOracle.searchLocal(model, qs(qi), p, getVec)
      val bits = (a: Array[(Long, Double)]) => a.map { case (id, d) => (id, java.lang.Double.doubleToRawLongBits(d)) }.toSeq
      assert(bits(ans) == bits(want), s"answer of query $qi under $p")
      assert(fetched.toSet == cands, s"candidates of query $qi under $p")
      assert(stats == wantStats, s"stats of query $qi under $p")
    }

  private val tinySettings = Seq(
    QueryParams.recommended(k = 10, alpha = 512),
    QueryParams(10, 256, 32, 32),
    QueryParams(10, 256, 256, 32, usePtolemaic = true),
    QueryParams(10, 256, 100, 40, usePtolemaic = true),
    QueryParams(100, 64, 64, 64),
    QueryParams(5, 2000, 2000, 2000))

  test("searchLocal equals the oracle on tiny, triangular and Ptolemaic") {
    val qs = TestFixtures.tinyQueries.map(_.vec)
    tinySettings.foreach(p => assertMatchesOracle(TestFixtures.tinyModel, qs, p, TestFixtures.getVec))
  }

  private def modelFor(spec: VectorData.Spec): HdIndexModel =
    HdIndex.build(spark, spec.data(spark), spec.localData, HdIndex.configFor(spec))

  // ω = 32 and η = 32: 128-byte keys, as on the sun dataset
  private lazy val wide = VectorData.tiny.copy(name = "wide", dim = 64, n = 400, nQueries = 6,
                                               omega = 32, tau = 2, seed = 41)
  private lazy val wideLocal = wide.localData
  // τ = 3 does not divide ν = 70: key widths of 96, 96 and 88 bytes
  private lazy val ragged = VectorData.tiny.copy(name = "ragged", dim = 70, n = 350, nQueries = 6,
                                                 omega = 32, tau = 3, seed = 42)
  private lazy val raggedLocal = ragged.localData

  test("searchLocal equals the oracle with deleted ids, on wide keys") {
    val m = modelFor(wide)
    val qs = wide.queries.map(_.vec)
    val p = QueryParams(10, 60, 20, 20)
    // delete a share of the first query's candidates: they still take filter slots
    val cands = QueryOracle.searchLocal(m, qs(0), p, id => wideLocal(id.toInt))._1.toSeq.sorted
    cands.zipWithIndex.collect { case (id, i) if i % 3 == 0 => id }.foreach(HdIndex.markDeleted(m, _))
    HdIndex.markDeleted(m, 0L)
    assert(m.deleted.size > 1)
    Seq(p, QueryParams(10, 60, 60, 15, usePtolemaic = true), QueryParams(10, 400, 400, 400))
      .foreach(pp => assertMatchesOracle(m, qs, pp, id => wideLocal(id.toInt)))
  }

  test("searchLocal equals the oracle on duplicate-heavy integer data, where bounds tie") {
    // values in {0, .., 3}: many objects share a vector, so keys, triangular
    // and Ptolemaic bounds tie, and the γ cut falls inside groups of ties
    val dup = VectorData.tiny.copy(name = "dup", dim = 16, n = 300, nQueries = 6, lo = 0, hi = 3,
                                   integerValued = true, stdFrac = 0.02, omega = 8, tau = 2, seed = 43)
    val local = dup.localData
    assert(local.map(_.toSeq).distinct.length < dup.n / 2)
    val m = modelFor(dup)
    Seq(QueryParams(10, 60, 20, 20), QueryParams(10, 60, 60, 15, usePtolemaic = true),
        QueryParams(10, 90, 45, 12, usePtolemaic = true))
      .foreach(p => assertMatchesOracle(m, dup.queries.map(_.vec), p, id => local(id.toInt)))
  }

  test("alpha = gamma = n equals LinearScan, and both paths equal the oracle, on 128-byte keys " +
       "and on a tau that does not divide nu") {
    for ((spec, local) <- Seq((wide, wideLocal), (ragged, raggedLocal))) {
      val m = modelFor(spec)
      assert(m.trees.map(t => t.keys.head.length).toSeq ==
             (if (spec eq wide) Seq(128, 128) else Seq(96, 96, 88)))
      val n = spec.n
      val getVec: Long => Array[Float] = id => local(id.toInt)
      val scan = LinearScan.build(spark, spec, spec.data(spark), local)
      val qs: Array[VecRow] = spec.queries
      qs.foreach { q =>
        val (ans, _) = HdQuery.searchLocal(m, q.vec, QueryParams(20, n, n, n), getVec)
        assert(ans.toSeq == scan.search(q.vec, 20).toSeq, s"${spec.name} query ${q.id}")
      }
      val p = QueryParams(20, 50, 12, 12)
      assertMatchesOracle(m, qs.map(_.vec), p, getVec)
      val dist = HdQuery.searchSpark(spark, m, qs, p, getVec)
      qs.indices.foreach(qi => assert(dist(qi).toSeq == HdQuery.searchLocal(m, qs(qi).vec, p, getVec)._1.toSeq))
    }
  }
}
