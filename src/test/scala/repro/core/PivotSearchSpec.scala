package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGen
import repro.Ex._
import repro.fst.{Fst, FstCompiler, InPred, OutOp, Transition}

import java.util.Random

class PivotSearchSpec extends AnyFunSuite {
  import PivotFold.{oplus, pivotsOfRun}
  import PivotSearch._

  private lazy val fst = FstCompiler.compile(piEx, dict)

  // ------------------------------------------- ⊕, the reference in PivotFold

  test("⊕ example from Sec V-A: {b,c} ⊕ {A} ⊕ {d,a1} = {c,d,a1}") {
    val r = oplus(oplus(Array(b, c), Array(A)), Array(d, a1))
    assert(r.toSet == Set(c, d, a1))
  }

  test("⊕ length-2 example: {b,c} ⊕ {A} = {A, c}") {
    assert(oplus(Array(b, c), Array(A)).toSet == Set(A, c))
  }

  test("⊕ with ε-sets: ε is the identity") {
    assert(oplus(Array(0), Array(a1)).toSet == Set(a1))
    assert(oplus(Array(a1), Array(0)).toSet == Set(a1))
    assert(oplus(Array(0), Array(0)).toSet == Set(0))
  }

  test("⊕ is commutative and associative on random inputs") {
    val r = new Random(7)
    def randSet(): Array[Int] = {
      val n = 1 + r.nextInt(4)
      Array.fill(n)(1 + r.nextInt(8)).distinct.sorted
    }
    for (_ <- 0 until 200) {
      val (u, q, w) = (randSet(), randSet(), randSet())
      assert(oplus(u, q).toSeq == oplus(q, u).toSeq, "commutative")
      assert(oplus(oplus(u, q), w).toSeq == oplus(u, oplus(q, w)).toSeq, "associative")
    }
  }

  test("Th 1: K(r) via ⊕ equals pivots of the run's Cartesian product") {
    val r = new Random(13)
    for (_ <- 0 until 300) {
      val nSets = 1 + r.nextInt(4)
      val run = IndexedSeq.fill(nSets) {
        if (r.nextInt(4) == 0) Array(0)
        else Array.fill(1 + r.nextInt(3))(1 + r.nextInt(8)).distinct.sorted
      }
      val got = pivotsOfRun(run, maxFid = -1).toSet
      val cands = repro.fst.FstSimulator.candidatesOfRun(run)
      val want = cands.map(_.max)
      assert(got == want, s"run=${run.map(_.mkString("{", ",", "}"))}")
    }
  }

  test("Th 1 with σ-filter: runs forced through infrequent-only sets yield no pivots") {
    // output sets {a1}, {e} with maxFid = c: e is infrequent, run dies
    assert(pivotsOfRun(IndexedSeq(Array(a1), Array(e)), maxFid = c).isEmpty)
    // {a1}, {d, e}: e dropped, pivots of a1·d
    assert(pivotsOfRun(IndexedSeq(Array(a1), Array(d, e)), maxFid = c).toSet == Set(a1))
  }

  // ------------------------------------------------------------------- grid

  test("K(T1) = {a1, c} (Fig 3)") {
    assert(grid(T1, fst, dict, dict.maxFrequentFid(2)).pivots.toSet == Set(a1, c))
  }

  test("K(T2) = {a1} with σ=2 (e is excluded early)") {
    assert(grid(T2, fst, dict, dict.maxFrequentFid(2)).pivots.toSet == Set(a1))
  }

  test("K(T2) = {a1, e} without σ-filter (Sec V-A grid example)") {
    assert(grid(T2, fst, dict, dict.size).pivots.toSet == Set(a1, e))
  }

  test("K(T3) is empty, K(T4) = {a2} unfiltered / empty with σ=2, K(T5) = {a1}") {
    val maxFid = dict.maxFrequentFid(2)
    assert(grid(T3, fst, dict, maxFid).pivots.isEmpty)
    assert(grid(T4, fst, dict, dict.size).pivots.toSet == Set(a2))
    assert(grid(T4, fst, dict, maxFid).pivots.isEmpty)
    assert(grid(T5, fst, dict, maxFid).pivots.toSet == Set(a1))
  }

  test("grid pivots match brute-force pivots on the whole running example") {
    for (t <- db; sigma <- Seq(1L, 2L, 3L)) {
      val maxFid = dict.maxFrequentFid(sigma)
      val got = grid(t, fst, dict, maxFid).pivots.toSet
      assert(got == TestGen.brutePivots(t, fst, dict, maxFid),
        s"t=${t.mkString(",")} sigma=$sigma")
    }
  }

  // ---------------------------------------------------------------- rewrite

  test("a position-state cell index past Int range is rejected before the grid allocates") {
    val states = 1024
    val wide = new Fst(states, 0, Array.fill(states)(true), Array.empty)
    val long = new Array[Int](1 << 21) // (2^21 + 1) * 1024 cells > 2^31 - 1
    val e = intercept[IllegalArgumentException](grid(long, wide, dict, dict.size))
    assert(e.getMessage.contains(s"n = ${1 << 21} items"))
    assert(e.getMessage.contains(s"S = $states states"))
  }

  test("Sec V-B: ρa1(T2) = a1ea1eb — leading irrelevant e's dropped") {
    val g = grid(T2, fst, dict, dict.maxFrequentFid(2))
    assert(rewrite(T2, g, a1).toSeq == Seq(a1, e, a1, e, b))
  }

  test("σ-aware backward pass: ρa1(d e a1) drops d e, whose runs must output infrequent e") {
    // Capturing d at position 0 reaches a final state only by capturing e
    // next; with σ = 2 e is infrequent, so no surviving edge starts there.
    val f = FstCompiler.compile("[(d)(e)]{0,1}(A)", dict)
    val t = Array(d, e, a1)
    val maxFid = dict.maxFrequentFid(2)
    val g = grid(t, f, dict, maxFid)
    assert(g.pivots.toSeq == Seq(a1))
    assert(rewrite(t, g, a1).toSeq == Seq(a1))
    assert(rewrite(t, grid(t, f, dict, dict.size), a1).toSeq == t.toSeq, "without σ the d e branch is feasible")
    val before = repro.fst.FstSimulator.candidates(t, f, dict, maxFid).filter(_.max == a1)
    val after = repro.fst.FstSimulator.candidates(rewrite(t, g, a1), f, dict, maxFid).filter(_.max == a1)
    assert(before == Set(List(a1)) && after == before)
  }

  test("minPivot(T2) under πex with σ=2: 0 where a run changes state, MaxValue where it only skips") {
    // e e a1 e a1 e b: every e is only skipped by a `.*` loop (e is
    // infrequent, so `(.^)` cannot output it); (A) can take either a1 and (b)
    // takes the b, each changing state.
    val g = grid(T2, fst, dict, dict.maxFrequentFid(2))
    val M = Int.MaxValue
    assert(g.minPivot.toSeq == Seq(M, M, 0, M, 0, M, 0))
  }

  test("rewrite returns t itself when the window is the whole sequence") {
    val g = grid(T5, fst, dict, dict.maxFrequentFid(2))
    assert(rewrite(T5, g, a1) eq T5)
  }

  test("rewrite trims trailing positions: ρa1(a1 b e e) = a1 b") {
    val t = Array(a1, b, e, e)
    val g = grid(t, fst, dict, dict.maxFrequentFid(2))
    assert(g.pivots.toSeq == Seq(a1))
    assert(rewrite(t, g, a1).toSeq == Seq(a1, b))
  }

  test("per-item relevance trims both ends; a k below every relevant position keeps t itself") {
    // One final state that skips any item or outputs c: no edge changes state.
    val f = new Fst(1, 0, Array(true), Array(
      Transition(0, InPred.AnyIn, OutOp.EpsOut, 0), Transition(0, InPred.ExactIn(c), OutOp.SelfOut, 0)))
    val g = grid(T1, f, dict, dict.maxFrequentFid(2))
    val M = Int.MaxValue
    assert(g.minPivot.toSeq == Seq(M, c, M, c, M))
    assert(rewrite(T1, g, c).toSeq == Seq(c, d, c))
    assert(rewrite(T1, g, d) eq T1)
  }

  test("rewrite never drops relevant positions: candidates for the pivot agree") {
    for (t <- db; sigma <- Seq(1L, 2L)) {
      val maxFid = dict.maxFrequentFid(sigma)
      val g = grid(t, fst, dict, maxFid)
      for (k <- g.pivots) {
        val rw = rewrite(t, g, k)
        val before = repro.fst.FstSimulator.candidates(t, fst, dict, maxFid).filter(_.max == k)
        val after = repro.fst.FstSimulator.candidates(rw, fst, dict, maxFid).filter(_.max == k)
        assert(before == after, s"t=${t.mkString(",")} k=${dict.name(k)}")
      }
    }
  }

  // ------------------------------------------------- randomized grid checks

  for ((name, patex) <- TestGen.patterns; seed <- Seq(1, 2, 3)) {
    test(s"grid pivots == brute-force pivots [$name, seed=$seed]") {
      val (d, db) = TestGen.encodeLocal(TestGen.randomDb(seed), TestGen.toyParents)
      val f = FstCompiler.compile(patex, d)
      for (t <- db; sigma <- Seq(1L, 3L)) {
        val maxFid = d.maxFrequentFid(sigma)
        val got = grid(t, f, d, maxFid).pivots.toSet
        val want = TestGen.brutePivots(t, f, d, maxFid)
        assert(got == want, s"t=${t.map(d.name).mkString(" ")} sigma=$sigma")
      }
    }

    test(s"rewrite preserves per-pivot candidate sets [$name, seed=$seed]") {
      val (d, db) = TestGen.encodeLocal(TestGen.randomDb(seed + 100), TestGen.toyParents)
      val f = FstCompiler.compile(patex, d)
      for (t <- db; sigma <- Seq(1L, 3L)) {
        val maxFid = d.maxFrequentFid(sigma)
        val g = grid(t, f, d, maxFid)
        for (k <- g.pivots) {
          val rw = rewrite(t, g, k)
          val before = repro.fst.FstSimulator.candidates(t, f, d, maxFid).filter(_.max == k)
          val after = repro.fst.FstSimulator.candidates(rw, f, d, maxFid).filter(_.max == k)
          assert(before == after, s"t=${t.map(d.name).mkString(" ")} k=${d.name(k)} sigma=$sigma")
        }
      }
    }
  }
}
