package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite
import repro.TestGen
import repro.TestGen.patex
import repro.baselines.LashLite
import repro.eval.Constraints
import repro.fst.{BlowUpException, FstCompiler}
import repro.patex.PatExPrinter

/** The item-partitioned miners against brute force on generated constraints
  * and hierarchies, not only on the fixed battery. Each dataflow runs its
  * drivers' per-task map and per-pivot functions through
  * [[TestGen.minePivotsLocally]], without Spark.
  */
class GeneratedConstraintSpec extends AnyFunSuite {

  test("DESQ-DFS, D-SEQ's partitions and D-CAND's NFAs == brute force on generated constraints") {
    var cases = 0
    var nonEmpty = 0
    val input = Gen.zip(patex(3).map(PatExPrinter.print), Gen.choose(0L, 1L << 20), Gen.oneOf(1L, 2L, 3L),
                        Gen.oneOf(Gen.const(TestGen.toyParents), TestGen.hierarchy))
    val params = Test.Parameters.default.withMinSuccessfulTests(600).withMaxDiscardRatio(1)
      .withInitialSeed(Seed(20191011L))
    val res = Test.check(params, Prop.forAllNoShrink(input) { case (p, seed, sigma, parents) =>
      val (dict, db) = TestGen.encodeLocal(TestGen.randomDb(seed, nSeqs = 10, maxLen = 7), parents)
      val fst = FstCompiler.compile(p, dict)
      val maxFid = dict.maxFrequentFid(sigma)
      val want = try Some(BruteForce.mine(db, fst, sigma, dict)) catch { case _: BlowUpException => None }
      Prop(want.isDefined) ==> {
        val dfs = DesqDfs.mine(db.map((_, 1L)), fst, dict, sigma, maxFid)
        val dSeq = TestGen.minePivotsLocally(db)(
          _.flatMap(Drivers.dSeqRecords(_, fst, dict, maxFid)))(
          Drivers.dSeqMine(_, _, fst, dict, sigma, maxFid))
        val dCand = TestGen.minePivotsLocally(db)(
          Drivers.dCandTask(_, fst, dict, maxFid, maxNodes = 1 << 20))(
          Drivers.dCandMine(_, _, sigma))
        cases += 1
        if (want.get.nonEmpty) nonEmpty += 1
        Prop(dfs == want.get && dSeq == want.get && dCand == want.get) :|
          s"'$p' σ=$sigma seed=$seed hierarchy=$parents: brute force ${want.get.size}, " +
            s"DESQ-DFS ${dfs.size}, D-SEQ ${dSeq.size}, D-CAND ${dCand.size} patterns"
      }
    })
    assert(res.passed, res.status.toString)
    assert(nonEmpty >= 200, s"only $nonEmpty of $cases generated cases have frequent patterns")
  }

  test("LASH-lite's partitions == brute force on T3 over random forests") {
    var nonEmpty = 0
    val input = Gen.zip(TestGen.forest, Gen.choose(0L, 1L << 20), Gen.oneOf(1L, 2L, 3L),
                        Gen.choose(0, 2), Gen.choose(2, 4))
    val params = Test.Parameters.default.withMinSuccessfulTests(300).withInitialSeed(Seed(20150531L))
    val res = Test.check(params, Prop.forAllNoShrink(input) { case (parents, seed, sigma, gamma, lambda) =>
      val (dict, db) = TestGen.encodeLocal(TestGen.randomDb(seed, nSeqs = 10, maxLen = 7), parents)
      val want = BruteForce.mine(db, Constraints.t3(sigma, gamma, lambda).patex, sigma, dict)
        .filter(_._1.length >= 2)
      val lash = TestGen.minePivotsLocally(db)(
        _.flatMap(LashLite.records(_, dict, dict.maxFrequentFid(sigma), gamma)))(
        LashLite.minePivot(_, _, dict, sigma, gamma, lambda))
      if (want.nonEmpty) nonEmpty += 1
      Prop(lash == want) :| s"T3($sigma,$gamma,$lambda) seed=$seed hierarchy=$parents: " +
        s"brute force ${want.size}, LASH-lite ${lash.size} patterns"
    })
    assert(res.passed, res.status.toString)
    assert(nonEmpty >= 150, s"only $nonEmpty of 300 generated cases have frequent patterns")
  }
}
