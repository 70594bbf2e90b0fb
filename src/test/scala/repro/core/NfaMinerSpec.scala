package repro.core

import repro.{SparkSpec, TestGen}
import repro.Ex._
import repro.fst.FstCompiler

class NfaMinerSpec extends SparkSpec {

  private lazy val fst = FstCompiler.compile(piEx, dict)

  test("partition Pa1 of the running example (σ=2) via NFA mining") {
    val maxFid = dict.maxFrequentFid(2)
    val nfas = Seq(T1, T2, T5)
      .flatMap(t => Nfa.buildForSequence(t, fst, dict, maxFid).get(a1))
      .map((_, 1L)).toIndexedSeq
    val got = NfaMiner.mine(nfas, 2, a1)
    assert(got == Map(
      Pattern(a1, a1, b) -> 2L,
      Pattern(a1, A, b) -> 2L,
      Pattern(a1, b) -> 3L))
  }

  test("weighted NFAs count with their weights (the combine/aggregate path)") {
    val maxFid = dict.maxFrequentFid(2)
    val nfa = Nfa.buildForSequence(T5, fst, dict, maxFid)(a1)
    val got = NfaMiner.mine(IndexedSeq((nfa, 5L)), 3, a1)
    assert(got(Pattern(a1, b)) == 5L)
    assert(got(Pattern(a1, a1, b)) == 5L)
  }

  test("non-pivot sequences are never emitted even if accepted by an NFA") {
    // Hand-built NFA accepting {b, cb}: at partition Pc only cb may be output.
    val nfa = NfaGen.nfa(
      isFinal = Array(false, true, true),
      edges = Array(
        Array((Array(b, c), 1)),  // root --{b,c}--> 1 (final)
        Array((Array(b), 2)),     // 1 --{b}--> 2 (final)
        Array.empty))
    val got = NfaMiner.mine(IndexedSeq((nfa, 5L)), 1, c)
    assert(got.keySet.forall(_.toList.contains(c)))
    assert(!got.contains(Pattern(b)))
    assert(got.contains(Pattern(c)) && got.contains(Pattern(c, b)))
  }

  test("overlapping paths in one NFA do not double count") {
    // Two root edges both able to spell "b": one NFA still counts b once.
    val nfa = NfaGen.nfa(
      isFinal = Array(false, true, true),
      edges = Array(
        Array((Array(b, c), 1), (Array(b), 2)),
        Array.empty, Array.empty))
    val got = NfaMiner.mine(IndexedSeq((nfa, 1L)), 1, b)
    assert(got(Pattern(b)) == 1L)
  }

  test("support threshold filters infrequent candidates") {
    val maxFid = dict.maxFrequentFid(2)
    val nfa = Nfa.buildForSequence(T5, fst, dict, maxFid)(a1)
    assert(NfaMiner.mine(IndexedSeq((nfa, 1L)), 2, a1).isEmpty)
  }

  test("empty input mines nothing") {
    assert(NfaMiner.mine(IndexedSeq.empty, 1, 1).isEmpty)
  }

  // --------------------------- randomized: the D-CAND driver vs brute force

  for ((name, patex) <- TestGen.patterns; seed <- Seq(41, 42)) {
    test(s"D-CAND local dataflow == brute force [$name, seed=$seed]") {
      val (d, dbr) = TestGen.encodeLocal(TestGen.randomDb(seed), TestGen.toyParents)
      for (sigma <- Seq(1L, 2L, 4L)) {
        val want = BruteForce.mine(dbr, patex, sigma, d)
        assert(dCand(dbr, d, patex, sigma) == want, s"sigma=$sigma")
      }
    }
  }
}
