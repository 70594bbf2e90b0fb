package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGen
import repro.Ex._
import repro.fst.{Fst, FstCompiler}

class DesqDfsSpec extends AnyFunSuite {

  private lazy val fst = FstCompiler.compile(piEx, dict)
  private def asDb(ts: Seq[Array[Int]]) = ts.toIndexedSeq.map(t => (t, 1L))

  test("running example, σ=2: frequent = {a1a1b:2, a1Ab:2, a1b:3} (Sec II)") {
    val got = DesqDfs.mine(asDb(db), fst, dict, 2, dict.maxFrequentFid(2))
    assert(got == Map(
      Pattern(a1, a1, b) -> 2L,
      Pattern(a1, A, b) -> 2L,
      Pattern(a1, b) -> 3L))
  }

  test("running example, σ=1: matches brute force") {
    val got = DesqDfs.mine(asDb(db), fst, dict, 1, dict.maxFrequentFid(1))
    val want = BruteForce.mine(db, fst, 1, dict)
    assert(got == want)
  }

  test("running example, σ=3: only a1b survives") {
    val got = DesqDfs.mine(asDb(db), fst, dict, 3, dict.maxFrequentFid(3))
    assert(got == Map(Pattern(a1, b) -> 3L))
  }

  test("pivot-restricted mining at Pa1 (Fig 6): only pivot-a1 sequences") {
    // Partition Pa1 receives (rewrites of) T1, T2, T5 (Fig 3).
    val maxFid = dict.maxFrequentFid(2)
    val part = asDb(Seq(T1, Array(a1, e, a1, e, b) /* ρa1(T2) */, T5))
    val got = DesqDfs.mine(part, fst, dict, 2, maxFid, pivot = Some(a1))
    assert(got == Map(
      Pattern(a1, a1, b) -> 2L,
      Pattern(a1, A, b) -> 2L,
      Pattern(a1, b) -> 3L))
  }

  test("pivot-restricted mining at Pc: a1b is NOT emitted (pivot a1 < c)") {
    val maxFid = dict.maxFrequentFid(2)
    val got = DesqDfs.mine(asDb(Seq(T1)), fst, dict, 1, maxFid, pivot = Some(c))
    assert(got.keySet.forall(_.pivot == c))
    assert(!got.contains(Pattern(a1, b)))
    assert(got.contains(Pattern(a1, c, b)))
  }

  test("weights are honored (aggregated identical sequences)") {
    val got = DesqDfs.mine(IndexedSeq((T5, 3L)), fst, dict, 2, dict.maxFrequentFid(2))
    assert(got(Pattern(a1, b)) == 3L)
    assert(got(Pattern(a1, a1, b)) == 3L)
  }

  test("union over pivot partitions equals unrestricted mining") {
    val maxFid = dict.maxFrequentFid(2)
    val full = DesqDfs.mine(asDb(db), fst, dict, 2, maxFid)
    val union = (1 to dict.size).flatMap { k =>
      DesqDfs.mine(asDb(db), fst, dict, 2, maxFid, pivot = Some(k))
    }.toMap
    assert(union == full)
  }

  test("a pivot only on a branch that cannot accept adds nothing to its partition") {
    // In `dead`, l7 follows an l0 but no l1 follows it: the run that would
    // capture l7 cannot accept, only the one capturing l5 does.
    val live = Seq(Array("l0", "l7", "l1"), Array("l0", "l7", "l1"))
    val dead = Array("l0", "l5", "l1", "l0", "l7")
    val (d, enc) = TestGen.encodeLocal(live ++ Seq(dead, dead), TestGen.toyParents)
    val f = FstCompiler.compile("l0(.)l1", d)
    val k = d.fid("l7")
    val maxFid = d.maxFrequentFid(2)
    def mine(ts: Seq[Array[Int]]) = DesqDfs.mine(asDb(ts), f, d, 2, maxFid, Some(k))
    assert(mine(enc.take(2)) == Map(Pattern(k) -> 2L))
    assert(mine(enc) == mine(enc.take(2)))
    assert(mine(enc.drop(2)).isEmpty)
  }

  test("entry encoding limits are checked before any per-sequence work") {
    val states = DesqDfs.MaxFstStates + 1
    val big = new Fst(states, 0, Array.fill(states)(true), Array.empty)
    val e1 = intercept[IllegalArgumentException](DesqDfs.mine(asDb(db), big, dict, 1, dict.size))
    assert(e1.getMessage.contains(s"at most ${DesqDfs.MaxFstStates} states"))
    val long = Array.fill(DesqDfs.MaxSequenceLength + 1)(a1)
    val e2 = intercept[IllegalArgumentException](DesqDfs.mine(asDb(Seq(long)), fst, dict, 1, dict.size))
    assert(e2.getMessage.contains(s"at most ${DesqDfs.MaxSequenceLength} items"))
  }

  test("a position-state cell index past Int range is rejected before any per-sequence work") {
    val states = DesqDfs.MaxFstStates
    val wide = new Fst(states, 0, Array.fill(states)(true), Array.empty)
    val long = new Array[Int](DesqDfs.MaxSequenceLength) // (2^21) * 1024 cells = 2^31
    val e = intercept[IllegalArgumentException](DesqDfs.mine(asDb(Seq(long)), wide, dict, 1, dict.size))
    assert(e.getMessage.contains("more position-state cells than an Int indexes"))
  }

  test("empty database mines nothing") {
    assert(DesqDfs.mine(IndexedSeq.empty, fst, dict, 1, dict.size).isEmpty)
  }

  // ---------------------------------------------- randomized vs brute force

  for ((name, patex) <- TestGen.patterns; seed <- Seq(11, 12)) {
    test(s"sequential DESQ-DFS == brute force [$name, seed=$seed]") {
      val (d, dbr) = TestGen.encodeLocal(TestGen.randomDb(seed), TestGen.toyParents)
      val f = FstCompiler.compile(patex, d)
      for (sigma <- Seq(1L, 2L, 4L)) {
        val got = DesqDfs.mine(dbr.map((_, 1L)), f, d, sigma, d.maxFrequentFid(sigma))
        val want = BruteForce.mine(dbr, f, sigma, d)
        assert(got == want, s"sigma=$sigma")
      }
    }

    test(s"pivot-partition union == brute force [$name, seed=$seed]") {
      val (d, dbr) = TestGen.encodeLocal(TestGen.randomDb(seed + 50), TestGen.toyParents)
      val f = FstCompiler.compile(patex, d)
      val sigma = 2L
      val maxFid = d.maxFrequentFid(sigma)
      val union = (1 to d.size).flatMap { k =>
        DesqDfs.mine(dbr.map((_, 1L)), f, d, sigma, maxFid, pivot = Some(k))
      }.toMap
      assert(union == BruteForce.mine(dbr, f, sigma, d))
    }
  }
}
