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
    // Without σ the d e branch is feasible, but its run outputs e > a1: it counts for pivot e.
    val all = grid(t, f, dict, dict.size)
    assert(all.pivots.toSeq == Seq(a1, e))
    assert(rewrite(t, all, a1).toSeq == Seq(a1), "without σ, d e a1 counts for e, not a1")
    assert(rewrite(t, all, e) eq t)
    val before = repro.fst.FstSimulator.candidates(t, f, dict, maxFid).filter(_.max == a1)
    val after = repro.fst.FstSimulator.candidates(rewrite(t, g, a1), f, dict, maxFid).filter(_.max == a1)
    assert(before == Set(List(a1)) && after == before)
  }

  test("window of a1 in T2 under πex with σ=2: from the first a1 a run captures to the b") {
    // e e a1 e a1 e b: every e is only skipped by a `.*` loop (e is
    // infrequent, so `(.^)` cannot output it); (A) can take either a1 and (b)
    // takes the b, each changing state.
    val g = grid(T2, fst, dict, dict.maxFrequentFid(2))
    assert(g.pivots.toSeq == Seq(a1))
    assert(g.first.toSeq == Seq(2) && g.last.toSeq == Seq(6))
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

  test("a one-state FST's window runs from the first to the last c it outputs") {
    // One final state that skips any item or outputs c: no edge changes state, so only the
    // steps that output c are not ε self-loops.
    val f = new Fst(1, 0, Array(true), Array(
      Transition(0, InPred.AnyIn, OutOp.EpsOut, 0), Transition(0, InPred.ExactIn(c), OutOp.SelfOut, 0)))
    val g = grid(T1, f, dict, dict.maxFrequentFid(2))
    assert(g.pivots.toSeq == Seq(c))
    assert(g.first.toSeq == Seq(1) && g.last.toSeq == Seq(3))
    assert(rewrite(T1, g, c).toSeq == Seq(c, d, c))
    // d is no pivot of T1, so it has no window to cut.
    intercept[IllegalArgumentException](rewrite(T1, g, d))
  }

  /** The initial state 0 skips any item. Then either `a1 d` through state 1 into state 2, final
    * with a `.*` loop, or, outputting only a1, `a1` into state 4 and `d` into state 3, final with
    * a loop only if `loop3`.
    */
  private def twoFinals(loop3: Boolean) = new Fst(5, 0, Array(false, false, true, true, false), Array(
    Transition(0, InPred.AnyIn, OutOp.EpsOut, 0), Transition(0, InPred.ExactIn(a1), OutOp.SelfOut, 1),
    Transition(1, InPred.ExactIn(d), OutOp.SelfOut, 2), Transition(2, InPred.AnyIn, OutOp.EpsOut, 2),
    Transition(0, InPred.ExactIn(a1), OutOp.SelfOut, 4), Transition(4, InPred.ExactIn(d), OutOp.EpsOut, 3)) ++
    (if (loop3) Seq(Transition(3, InPred.AnyIn, OutOp.EpsOut, 3)) else Nil))

  test("the tail stays when a counted prefix ends in a final state with no ε-only way to the end") {
    // a1 d c: the runs through state 3 stop at c, so only `a1 d` (pivot a1, as d < a1) is a
    // candidate; a1 d alone would also accept the prefix a1 · d/ε into state 3, giving `a1`.
    // Every cell of that prefix is dead in a1 d c, so the check must follow prefixes through
    // cells without an accepting suffix.
    val t = Array(a1, d, c)
    val f = twoFinals(loop3 = false)
    val g = grid(t, f, dict, dict.size)
    assert(g.pivots.toSeq == Seq(a1))
    assert(rewrite(t, g, a1) eq t)
    val want = repro.fst.FstSimulator.candidates(t, f, dict).filter(_.max == a1)
    assert(want == Set(List(a1, d)))
    assert(repro.fst.FstSimulator.candidates(t.take(2), f, dict).filter(_.max == a1) == Set(List(a1), List(a1, d)),
      "cutting c would add the candidate a1")
    assert(TestGen.bruteWindows(t, f, dict, dict.size) == Map(a1 -> (0, 2)))
  }

  test("the tail goes when every final state a counted prefix reaches has an ε-only way to the end") {
    val t = Array(a1, d, c)
    val f = twoFinals(loop3 = true)
    val g = grid(t, f, dict, dict.size)
    assert(rewrite(t, g, a1).toSeq == Seq(a1, d))
    assert(repro.fst.FstSimulator.candidates(Array(a1, d), f, dict).filter(_.max == a1) ==
      repro.fst.FstSimulator.candidates(t, f, dict).filter(_.max == a1))
    assert(TestGen.bruteWindows(t, f, dict, dict.size) == Map(a1 -> (0, 1)))
  }

  test("N5: ρk(T) is the span of the 3-grams with a candidate whose largest item is k") {
    // N5 outputs every 3-gram with one item generalized. Its FST's final state loops on `.`,
    // so a gram's steps are the only ones that are not ε self-loops.
    val names = Array("l0", "l4", "l7", "l1", "l5", "l9", "l2", "l6")
    val (d5, Seq(t)) = TestGen.encodeLocal(Seq(names), TestGen.toyParents)
    val f = FstCompiler.compile("([.^. .]|[. .^.]|[. . .^])", d5)
    val g = grid(t, f, d5, d5.size)
    def rho(w: String) = rewrite(t, g, d5.fid(w)).map(d5.name).mkString(" ")
    assert(rho("l7") == "l0 l4 l7 l1 l5")
    assert(rho("l9") == "l1 l5 l9 l2 l6")
    assert(rewrite(t, g, d5.fid("m0")) eq t)
    for (k <- g.pivots) {
      val starts = for {
        s <- 0 to t.length - 3; slot <- 0 to 2; w <- d5.anc(t(s + slot))
        if t.slice(s, s + 3).updated(slot, w).max == k
      } yield s
      assert(rewrite(t, g, k).toSeq == t.slice(starts.min, starts.max + 3).toSeq, d5.name(k))
    }
  }

  import TestGen.{d100, pairs100}

  test("more than 64 pivots: every lane's window keeps exactly the pivot's candidates") {
    val t = TestGen.shuffled100
    val f = FstCompiler.compile(pairs100, d100)
    val g = grid(t, f, d100, d100.size)
    assert(g.pivots.length > 64)
    val all = repro.fst.FstSimulator.candidates(t, f, d100)
    for (k <- g.pivots) {
      val rw = rewrite(t, g, k)
      assert(repro.fst.FstSimulator.candidates(rw, f, d100).filter(_.max == k) == all.filter(_.max == k),
        s"k=$k t=${t.mkString(" ")}")
    }
    // k occurs once, so its window is at most the two items on either side of it.
    assert(g.pivots.indices.forall(p => g.last(p) - g.first(p) <= 4))
  }

  test("chunk edges: a whole chunk of 64 candidates without a pivot, and exactly 64 candidates") {
    // The candidates are t's distinct items. `spaced`'s chunk of the 64 smallest candidates
    // holds no pivot. `full` has exactly 64, one all-ones lane mask.
    val f = FstCompiler.compile(pairs100, d100)
    val spaced = TestGen.spaced100
    val full = new scala.util.Random(63).shuffle((1 to 64).toVector).toArray
    for ((t, candidates) <- Seq(spaced -> 100, full -> 64)) {
      assert(t.distinct.length == candidates)
      val g = grid(t, f, d100, d100.size)
      assert(g.pivots.toSet == repro.fst.FstSimulator.candidates(t, f, d100).map(_.max), s"$candidates candidates")
      val got = g.pivots.indices.map(p => g.pivots(p) -> (g.first(p), g.last(p))).toMap
      assert(got == TestGen.bruteWindows(t, f, d100, d100.size), s"$candidates candidates")
    }
    assert(grid(spaced, f, d100, d100.size).pivots.toSeq == (65 to 100))
    assert(grid(full, f, d100, d100.size).pivots.last == 64)
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
        val g = grid(t, f, d, maxFid)
        val want = TestGen.brutePivots(t, f, d, maxFid)
        assert(g.pivots.toSet == want, s"t=${t.map(d.name).mkString(" ")} sigma=$sigma")
      }
    }

    test(s"grid windows == brute-force windows [$name, seed=$seed]") {
      val (d, db) = TestGen.encodeLocal(TestGen.randomDb(seed + 200), TestGen.toyParents)
      val f = FstCompiler.compile(patex, d)
      for (t <- db; sigma <- Seq(1L, 3L)) {
        val maxFid = d.maxFrequentFid(sigma)
        val g = grid(t, f, d, maxFid)
        val got = g.pivots.indices.map(p => g.pivots(p) -> (g.first(p), g.last(p))).toMap
        assert(got == TestGen.bruteWindows(t, f, d, maxFid), s"t=${t.map(d.name).mkString(" ")} sigma=$sigma")
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
