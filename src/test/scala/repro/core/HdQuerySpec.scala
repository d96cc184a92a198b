package repro.core

import repro.{Oracle, SparkSpec, TestFixtures, VecRow}
import repro.baselines.LinearScan

class HdQuerySpec extends SparkSpec {

  // --- window selection (pure) -------------------------------------------

  private def key1d(v: Long): Array[Byte] = Hilbert(1, 8).encode(Array(v))

  test("lowerBound finds the insertion point") {
    val keys = Array(1L, 3L, 5L, 7L).map(key1d)
    assert(HdQuery.lowerBound(keys, key1d(0)) == 0)
    assert(HdQuery.lowerBound(keys, key1d(3)) == 1)
    assert(HdQuery.lowerBound(keys, key1d(4)) == 2)
    assert(HdQuery.lowerBound(keys, key1d(9)) == 4)
  }

  test("selectWindow picks the numerically nearest alpha keys") {
    val keys = Array(0L, 10L, 20L, 30L, 100L).map(key1d)
    // query at 22: nearest 3 are 20, 30, 10
    val (s, e) = HdQuery.selectWindow(keys, key1d(22), 3)
    assert((s, e) == (1, 4))
  }

  test("selectWindow clamps at array boundaries") {
    val keys = Array(10L, 20L, 30L).map(key1d)
    assert(HdQuery.selectWindow(keys, key1d(0), 2) == (0, 2))
    assert(HdQuery.selectWindow(keys, key1d(255), 2) == (1, 3))
    assert(HdQuery.selectWindow(keys, key1d(15), 10) == (0, 3)) // alpha > n
  }

  test("selectWindow on empty keys returns empty range") {
    assert(HdQuery.selectWindow(Array.empty, key1d(5), 4) == (0, 0))
  }

  test("selectWindow window is always contiguous of size min(alpha, n)") {
    val rng = new scala.util.Random(3)
    val keys = Array.fill(50)(rng.nextInt(256).toLong).sorted.map(key1d)
    for (_ <- 1 to 50) {
      val q = key1d(rng.nextInt(256).toLong)
      val (s, e) = HdQuery.selectWindow(keys, q, 7)
      assert(e - s == 7)
      assert(s >= 0 && e <= keys.length)
    }
  }

  // --- end-to-end ---------------------------------------------------------

  lazy val model: HdIndexModel = TestFixtures.tinyModel
  lazy val queries: Array[VecRow] = TestFixtures.tinyQueries
  lazy val truth: Array[Array[(Long, Double)]] = TestFixtures.tinyTruth
  private val params = QueryParams.recommended(k = 10, alpha = 512)

  test("query returns k results sorted by (distance, id)") {
    val (ans, _) = HdQuery.searchLocal(model, queries(0).vec, params, TestFixtures.getVec)
    assert(ans.length == 10)
    for (i <- 1 until ans.length)
      assert(ans(i - 1)._2 < ans(i)._2 || (ans(i - 1)._2 == ans(i)._2 && ans(i - 1)._1 < ans(i)._1))
  }

  test("reported distances are the true distances to the returned ids") {
    val (ans, _) = HdQuery.searchLocal(model, queries(1).vec, params, TestFixtures.getVec)
    ans.foreach { case (id, d) =>
      assert(math.abs(d - Distance.l2(TestFixtures.tinyLocal(id.toInt), queries(1).vec)) < 1e-9)
    }
  }

  test("a database point queries back itself at rank 1") {
    val v = TestFixtures.tinyLocal(123)
    val (ans, _) = HdQuery.searchLocal(model, v, params, TestFixtures.getVec)
    assert(ans.head._1 == 123L)
    assert(ans.head._2 == 0.0)
  }

  test("MAP@10 on tiny clustered data is high (triangular filter)") {
    val per = queries.indices.map { qi =>
      val (ans, _) = HdQuery.searchLocal(model, queries(qi).vec, params, TestFixtures.getVec)
      (truth(qi).map(_._1).toSeq, ans.map(_._1).toSeq)
    }
    val map10 = Metrics.mapAtK(per, 10)
    assert(map10 > 0.75, s"MAP@10 = $map10 too low for a 2000-point clustered set")
  }

  test("Ptolemaic filtering never hurts MAP at aggressive reduction (Sec. 5.2.5)") {
    val aggressiveTri = QueryParams(10, 256, 32, 32, usePtolemaic = false)
    val aggressivePto = QueryParams(10, 256, 256, 32, usePtolemaic = true)
    def mapOf(p: QueryParams): Double = Metrics.mapAtK(
      queries.indices.map { qi =>
        val (ans, _) = HdQuery.searchLocal(model, queries(qi).vec, p, TestFixtures.getVec)
        (truth(qi).map(_._1).toSeq, ans.map(_._1).toSeq)
      }, 10)
    assert(mapOf(aggressivePto) >= mapOf(aggressiveTri) - 0.02)
  }

  test("larger alpha does not reduce MAP") {
    def mapWithAlpha(alpha: Int): Double = Metrics.mapAtK(
      queries.indices.take(10).map { qi =>
        val p = QueryParams.recommended(10, alpha)
        val (ans, _) = HdQuery.searchLocal(model, queries(qi).vec, p, TestFixtures.getVec)
        (truth(qi).map(_._1).toSeq, ans.map(_._1).toSeq)
      }, 10)
    assert(mapWithAlpha(1024) >= mapWithAlpha(64) - 0.02)
  }

  test("alpha = n degenerates to exact search (every object a candidate, gamma = n)") {
    val n = model.n.toInt
    val p = QueryParams(10, n, n, n)
    for (qi <- 0 until 5) {
      val (ans, _) = HdQuery.searchLocal(model, queries(qi).vec, p, TestFixtures.getVec)
      assert(ans.map(_._1).toSeq == truth(qi).take(10).map(_._1).toSeq)
    }
  }

  test("query stats count pages and candidate accesses") {
    val (_, stats) = HdQuery.searchLocal(model, queries(0).vec, params, TestFixtures.getVec)
    assert(stats.leafPages > 0)
    assert(stats.kappa >= params.gamma) // at least gamma (all trees agree)
    assert(stats.kappa <= model.cfg.tau * params.gamma) // at most tau*gamma (Sec. 4.2)
    assert(stats.randomAccesses == stats.kappa)
  }

  test("kappa bounds hold across many queries (gamma <= kappa <= tau*gamma)") {
    queries.take(20).foreach { q =>
      val (_, st) = HdQuery.searchLocal(model, q.vec, params, TestFixtures.getVec)
      assert(st.kappa >= params.gamma && st.kappa <= model.cfg.tau * params.gamma)
    }
  }

  test("distributed (Spark partition-scan) path returns identical answers to local path") {
    val qs = queries.take(8)
    val distAns = HdQuery.searchSpark(spark, model, qs, params, TestFixtures.getVec)
    qs.indices.foreach { qi =>
      val (localAns, _) = HdQuery.searchLocal(model, qs(qi).vec, params, TestFixtures.getVec)
      assert(distAns(qi).toSeq == localAns.toSeq, s"mismatch for query $qi")
    }
  }

  test("distributed path with ptolemaic filter matches local path") {
    val p = QueryParams(10, 256, 256, 64, usePtolemaic = true)
    val qs = queries.take(4)
    val distAns = HdQuery.searchSpark(spark, model, qs, p, TestFixtures.getVec)
    qs.indices.foreach { qi =>
      val (localAns, _) = HdQuery.searchLocal(model, qs(qi).vec, p, TestFixtures.getVec)
      assert(distAns(qi).toSeq == localAns.toSeq)
    }
  }

  // --- input contracts: both paths reject a bad query at the API edge ------

  private def assertRejected(q: Array[Float], p: QueryParams): Unit = {
    assertThrows[IllegalArgumentException](HdQuery.searchLocal(model, q, p, TestFixtures.getVec))
    assertThrows[IllegalArgumentException](
      HdQuery.searchSpark(spark, model, Array(VecRow(-1L, q)), p, TestFixtures.getVec))
  }

  test("a query of the wrong dimension is rejected") {
    assertRejected(queries(0).vec.take(model.cfg.dim - 1), params)
    assertRejected(queries(0).vec :+ 0.5f, params)
  }

  test("a query with a NaN coordinate is rejected") {
    assertRejected(queries(0).vec.updated(3, Float.NaN), params)
  }

  test("a query with an infinite coordinate is rejected") {
    assertRejected(queries(0).vec.updated(0, Float.PositiveInfinity), params)
  }

  test("k < 1 is rejected") {
    assertRejected(queries(0).vec, params.copy(k = 0))
  }

  test("alpha < 1 is rejected") {
    assertRejected(queries(0).vec, params.copy(alpha = 0))
  }

  test("gamma < 1 is rejected") {
    assertRejected(queries(0).vec, params.copy(gamma = 0))
  }

  test("final top-k ranking of candidates matches SQL ordering (DuckDB oracle)") {
    import spark.implicits._
    // candidates + exact distances of one query, ranked by our code vs SQL
    val q = queries(2).vec
    val (ans, _) = HdQuery.searchLocal(model, q, params.copy(k = 20), TestFixtures.getVec)
    val candDf = ans.toSeq.map { case (id, d) => (id.toString, d) }
      .toDF("id", "dist")
    val got = candDf.orderBy($"dist", $"id".cast("long")).limit(10).select("id")
    Oracle.assertEquivalent(got,
      "SELECT id FROM c ORDER BY CAST(dist AS DOUBLE), CAST(id AS BIGINT) LIMIT 10",
      "c" -> candDf)
  }

  test("ground truth via Spark matches a driver-side brute force") {
    val local = TestFixtures.tinyLocal
    val q = queries(3)
    val brute = local.indices.map(i => (i.toLong, Distance.l2(local(i), q.vec)))
      .sortBy { case (id, d) => (d, id) }.take(100)
    assert(truth(3).toSeq == brute)
  }

  test("ground truth helper handles multiple queries consistently") {
    val single = LinearScan.groundTruth(spark, TestFixtures.tiny.data(spark), Array(queries(5)), 10)
    assert(single(0).toSeq == truth(5).take(10).toSeq)
  }
}
