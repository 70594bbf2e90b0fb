package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite
import repro.TestGen
import repro.fst.{BlowUpException, FstCompiler}
import repro.patex.{PatEx, PatExPrinter}
import repro.patex.PatEx._

/** The reduce-side miners against brute force on generated pattern
  * expressions, not only on the fixed battery, run locally: the map side and
  * shuffle of each dataflow are written out as plain collection operations.
  */
class GeneratedConstraintSpec extends AnyFunSuite {

  private val names = TestGen.leaves ++ Seq("m0", "m1", "m2", "top")

  /** Pattern expressions of depth at most `depth` over the toy names and
    * `.`: `↑` and `=`, captures, concatenation, alternation, and `?`, `*`,
    * `+` and `{n,m}` with `m <= 2`.
    */
  private def patex(depth: Int): Gen[PatEx] = {
    val leaf = Gen.oneOf(
      Gen.zip(Gen.oneOf(names), Gen.oneOf(false, true), Gen.oneOf(false, true)).map((Item.apply _).tupled),
      Gen.oneOf(false, true).map(Dot(_)))
    if (depth == 0) leaf
    else {
      val sub = patex(depth - 1)
      Gen.frequency(
        2 -> leaf,
        4 -> sub.map(Capture(_)),
        3 -> Gen.choose(2, 3).flatMap(Gen.listOfN(_, sub)).map(Concat(_)),
        1 -> Gen.listOfN(2, sub).map(Alt(_)),
        2 -> Gen.zip(sub, Gen.oneOf((0, 1), (0, Int.MaxValue), (1, Int.MaxValue), (0, 2), (1, 2), (2, 2)))
          .map { case (e, (min, max)) => Repeat(e, min, max) })
    }
  }

  test("DESQ-DFS, D-SEQ's partitions and D-CAND's NFAs == brute force on generated constraints") {
    var cases = 0
    var nonEmpty = 0
    val input = Gen.zip(patex(3).map(PatExPrinter.print), Gen.choose(0L, 1L << 20), Gen.oneOf(1L, 2L, 3L))
    val params = Test.Parameters.default.withMinSuccessfulTests(600).withMaxDiscardRatio(1)
      .withInitialSeed(Seed(20191011L))
    val res = Test.check(params, Prop.forAllNoShrink(input) { case (p, seed, sigma) =>
      val (dict, db) = TestGen.encodeLocal(TestGen.randomDb(seed, nSeqs = 10, maxLen = 7), TestGen.toyParents)
      val fst = FstCompiler.compile(p, dict)
      val maxFid = dict.maxFrequentFid(sigma)
      val want = try Some(BruteForce.mine(db, fst, sigma, dict)) catch { case _: BlowUpException => None }
      Prop(want.isDefined) ==> {
        val dfs = DesqDfs.mine(db.map((_, 1L)), fst, dict, sigma, maxFid)
        val dSeq = db.flatMap { t =>
          val g = PivotSearch.grid(t, fst, dict, maxFid)
          g.pivots.map(k => k -> PivotSearch.rewrite(t, g, k))
        }.groupMap(_._1)(_._2).flatMap { case (k, ts) =>
          DesqDfs.mine(ts.map((_, 1L)), fst, dict, sigma, maxFid, Some(k))
        }
        val dCand = db.flatMap(Nfa.buildForSequence(_, fst, dict, maxFid))
          .groupMapReduce { case (k, nfa) => (k, NfaSerializer.serialize(nfa)) }(_ => 1L)(_ + _)
          .groupBy(_._1._1).flatMap { case (k, nfas) =>
            NfaMiner.mine(nfas.toIndexedSeq.map { case ((_, b), w) => (NfaSerializer.deserialize(b), w) }, sigma, k)
          }
        cases += 1
        if (want.get.nonEmpty) nonEmpty += 1
        Prop(dfs == want.get && dSeq == want.get && dCand == want.get) :|
          s"'$p' σ=$sigma seed=$seed: brute force ${want.get.size}, DESQ-DFS ${dfs.size}, " +
            s"D-SEQ ${dSeq.size}, D-CAND ${dCand.size} patterns"
      }
    })
    assert(res.passed, res.status.toString)
    assert(nonEmpty >= 200, s"only $nonEmpty of $cases generated cases have frequent patterns")
  }
}
