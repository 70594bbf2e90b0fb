package repro.fst

import org.scalatest.funsuite.AnyFunSuite
import repro.Ex._

/** FST compilation and simulation against the paper's published expected
  * outputs for the running example (Fig. 2–4).
  */
class FstSemanticsSpec extends AnyFunSuite {

  private lazy val fst = FstCompiler.compile(piEx, dict)

  test("Fig 4: compiled FST for πex is compact (3 states, 6 transitions)") {
    assert(fst.numStates == 3, fst.toString)
    assert(fst.numTransitions == 6, fst.toString)
  }

  test("Fig 3: Gπex(T1) — 7 candidate subsequences") {
    val got = FstSimulator.candidates(T1, fst, dict)
    val want = seqs(
      List(a1, c, d, c, b), List(a1, c, d, b), List(a1, c, b),
      List(a1, d, c, b), List(a1, c, c, b), List(a1, d, b), List(a1, b))
    assert(got == want)
  }

  test("Fig 3: Gπex(T2) — 11 candidate subsequences") {
    val got = FstSimulator.candidates(T2, fst, dict)
    val want = seqs(
      List(a1, a1, b), List(a1, A, b), List(a1, b),
      List(a1, e, b), List(a1, e, e, b), List(a1, a1, e, b),
      List(a1, A, e, b), List(a1, e, a1, b), List(a1, e, A, b),
      List(a1, e, a1, e, b), List(a1, e, A, e, b))
    assert(got == want)
  }

  test("Fig 3: Gπex(T3) is empty") {
    assert(FstSimulator.candidates(T3, fst, dict).isEmpty)
  }

  test("Fig 3: Gπex(T4) = {a2db, a2b}") {
    assert(FstSimulator.candidates(T4, fst, dict) ==
      seqs(List(a2, d, b), List(a2, b)))
  }

  test("Fig 3 / Sec II: Gπex(T5) = {a1a1b, a1Ab, a1b}") {
    assert(FstSimulator.candidates(T5, fst, dict) ==
      seqs(List(a1, a1, b), List(a1, A, b), List(a1, b)))
  }

  test("Sec IV: T5 has exactly 3 accepting runs") {
    var runs = 0
    FstSimulator.foreachAcceptingRun(T5, fst, dict)(_ => runs += 1)
    assert(runs == 3)
  }

  test("run enumeration rejects a position-state cell index past Int range") {
    val states = 1024
    val wide = new Fst(states, 0, Array.fill(states)(true), Array.empty)
    val long = new Array[Int](1 << 21) // (2^21 + 1) * 1024 cells > 2^31 - 1
    val e = intercept[IllegalArgumentException](FstSimulator.foreachAcceptingRun(long, wide, dict)(_ => ()))
    assert(e.getMessage.contains("more position-state cells than an Int indexes"))
  }

  test("σ-filtered candidates: Gσπex(T2) with σ=2 drops everything containing e") {
    val maxFid = dict.maxFrequentFid(2)
    assert(maxFid == c) // frequent: b, A, d, a1, c
    assert(FstSimulator.candidates(T2, fst, dict, maxFid) ==
      seqs(List(a1, a1, b), List(a1, A, b), List(a1, b)))
  }

  test("σ-filtered candidates: Gσπex(T4) with σ=2 is empty (a2 infrequent)") {
    assert(FstSimulator.candidates(T4, fst, dict, dict.maxFrequentFid(2)).isEmpty)
  }

  test("Sec II: Aa1b is NOT generated from T5 — (A) does not generalize") {
    val got = FstSimulator.candidates(T5, fst, dict)
    assert(!got.contains(List(A, a1, b)))
  }

  test("b ⪯ T5 but b is not π-generated (must start with desc of A)") {
    assert(!FstSimulator.candidates(T5, fst, dict).contains(List(b)))
  }
}
