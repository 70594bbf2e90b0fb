package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite
import repro.TestGen
import repro.baselines.LashLite
import repro.eval.Constraints
import repro.fst.{BlowUpException, FstCompiler}
import repro.patex.{PatEx, PatExPrinter}
import repro.patex.PatEx._

/** The item-partitioned miners against brute force on generated constraints
  * and hierarchies, not only on the fixed battery. Each dataflow runs its
  * drivers' map and per-pivot functions through
  * [[TestGen.minePivotsLocally]], without Spark.
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
        val dSeq = TestGen.minePivotsLocally(db, aggregate = false)(
          Drivers.dSeqRecords(_, fst, dict, maxFid, rewrite = true))(
          (k, ts) => DesqDfs.mine(ts, fst, dict, sigma, maxFid, Some(k)).iterator)
        val dCand = TestGen.minePivotsLocally(db, aggregate = true)(
          Drivers.dCandRecords(_, fst, dict, maxFid, maxNodes = 1 << 20, minimize = true))(
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
      val lash = TestGen.minePivotsLocally(db, aggregate = false)(
        LashLite.records(_, dict, dict.maxFrequentFid(sigma), gamma))(
        LashLite.minePivot(_, _, dict, sigma, gamma, lambda))
      if (want.nonEmpty) nonEmpty += 1
      Prop(lash == want) :| s"T3($sigma,$gamma,$lambda) seed=$seed hierarchy=$parents: " +
        s"brute force ${want.size}, LASH-lite ${lash.size} patterns"
    })
    assert(res.passed, res.status.toString)
    assert(nonEmpty >= 150, s"only $nonEmpty of 300 generated cases have frequent patterns")
  }
}
