package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen
import repro.PropHelpers.forAllSamples

class DistanceSpec extends AnyFunSuite {

  test("l2 on axis-aligned unit difference is 1") {
    assert(Distance.l2(Array(0f, 0f), Array(1f, 0f)) == 1.0)
  }

  test("l2 3-4-5 triangle") {
    assert(Distance.l2(Array(0f, 0f), Array(3f, 4f)) == 5.0)
  }

  test("l2sq equals l2 squared") {
    val a = Array(1f, 2f, 3f); val b = Array(4f, 6f, 3f)
    assert(math.abs(Distance.l2sq(a, b) - math.pow(Distance.l2(a, b), 2)) < 1e-9)
  }

  test("dim mismatch is rejected") {
    assertThrows[IllegalArgumentException](Distance.l2(Array(1f), Array(1f, 2f)))
  }

  test("l2sqSlice matches l2sq on the slice") {
    val a = Array(1f, 2f, 3f, 4f); val b = Array(0f, 0f, 0f, 0f)
    assert(Distance.l2sqSlice(a, b, 1, 3) == Distance.l2sq(Array(2f, 3f), Array(0f, 0f)))
  }

  test("property: metric axioms (symmetry, identity, triangle inequality)") {
    val vec = Gen.listOfN(6, Gen.choose(-100.0, 100.0)).map(_.map(_.toFloat).toArray)
    forAllSamples(Gen.zip(vec, vec, vec), n = 200) { case (a, b, c) =>
      val ab = Distance.l2(a, b); val ba = Distance.l2(b, a)
      assert(math.abs(ab - ba) < 1e-9)
      assert(Distance.l2(a, a) == 0.0)
      assert(ab <= Distance.l2(a, c) + Distance.l2(c, b) + 1e-6)
    }
  }

  test("topK returns the k smallest, ascending, ties by id") {
    val scored = Seq((5L, 3.0), (1L, 1.0), (2L, 1.0), (9L, 0.5), (7L, 9.0))
    val got = Distance.topK(scored.iterator, 3).toSeq
    assert(got == Seq((9L, 0.5), (1L, 1.0), (2L, 1.0)))
  }

  test("topK with k larger than input returns everything sorted") {
    val got = Distance.topK(Seq((1L, 2.0), (2L, 1.0)).iterator, 10).toSeq
    assert(got == Seq((2L, 1.0), (1L, 2.0)))
  }

  test("topK on empty input is empty") {
    assert(Distance.topK(Iterator.empty, 5).isEmpty)
  }

  test("property: topK agrees with full sort") {
    val gen = Gen.listOf(Gen.zip(Gen.choose(0L, 1000L), Gen.choose(0.0, 100.0)))
    forAllSamples(gen, n = 100) { xs =>
      val distinctIds = xs.distinctBy(_._1)
      val expect = distinctIds.sortBy { case (id, s) => (s, id) }.take(5)
      val got = Distance.topK(distinctIds.iterator, 5).toSeq
      assert(got == expect)
    }
  }

  test("property: l2Bounded4 is l2 when it runs to the end and above the limit when it stops") {
    val vec = Gen.listOfN(70, Gen.choose(-10.0, 10.0)).map(_.map(_.toFloat).toArray)
    val lanes = Gen.zip(Gen.listOfN(5, vec), Gen.choose(0.0, 2.0), Gen.listOfN(4, Gen.oneOf(32, 70)))
    forAllSamples(lanes, n = 300) { case (vs, f, differ) =>
      val b = vs(4)
      // a vector equal to b after dimension 32 has its whole distance in the
      // first block, so its partial root can tie the limit before the end
      val Seq(a0, a1, a2, a3) = vs.take(4).zip(differ).map { case (a, n) =>
        Array.tabulate(70)(i => if (i < n) a(i) else b(i))
      }
      val d = Seq(a0, a1, a2, a3).map(Distance.l2(_, b))
      val out = new Array[Double](4)
      Distance.l2Bounded4(a0, a1, a2, a3, b, Double.PositiveInfinity, out)
      assert(out.toSeq == d)
      Distance.l2Bounded4(a0, a1, a2, a3, b, d.min, out) // a tie with the limit is not abandoned
      assert(out.toSeq == d)
      val limit = d.min * f
      Distance.l2Bounded4(a0, a1, a2, a3, b, limit, out)
      if (out.toSeq != d) assert(out.forall(_ > limit) && out.indices.forall(i => out(i) <= d(i)))
    }
  }

  test("property: TopK keeps the k smallest (score, id) pairs with tied scores") {
    val gen = Gen.zip(Gen.listOf(Gen.choose(0, 5)), Gen.choose(0, 12))
    forAllSamples(gen, n = 300) { case (scores, k) =>
      val scored = scores.zipWithIndex.map { case (s, i) => ((i * 7919L) % 1000, s.toDouble) }.distinctBy(_._1)
      val heap = new Distance.TopK(k)
      scored.foreach { case (id, s) => heap.offer(id, s) }
      assert(heap.result().toSeq == scored.sortBy { case (id, s) => (s, id) }.take(k))
    }
  }

  test("mergeTopK merges sorted lists correctly") {
    val a = Array((1L, 1.0), (3L, 3.0))
    val b = Array((2L, 2.0), (4L, 4.0))
    assert(Distance.mergeTopK(a, b, 3).toSeq == Seq((1L, 1.0), (2L, 2.0), (3L, 3.0)))
  }
}
