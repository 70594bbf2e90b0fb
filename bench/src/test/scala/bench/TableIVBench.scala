package bench

import repro.core.BruteForce
import repro.eval.{Constraints, Tables}
import repro.fst.FstCompiler

/** Tab. IV — candidate subsequence statistics. Shape checks: the battery
  * spans selective (CSPI ~1–10: N1, N2, N3) to loose (CSPI in the hundreds+:
  * T3, T1) constraints, as in the paper.
  */
class TableIVBench extends BenchBase {

  test("Table IV: statistics on candidate subsequences") {
    report("TableIV", Tables.tableIV(spark, datasets))
  }

  private def cspiMean(c: Constraints.Constraint, cap: Int = 200000): Double = {
    val db = datasets(c.dataset)
    val fst = FstCompiler.compile(c.patex, db.dict)
    val maxFid = db.dict.maxFrequentFid(c.sigma)
    val bcD = spark.sparkContext.broadcast(db.dict)
    val bcF = spark.sparkContext.broadcast(fst)
    val counts = db.sequences
      .map(BruteForce.candidateCount(_, bcF.value, bcD.value, maxFid, cap))
      .filter(_ > 0).collect()
    if (counts.isEmpty) 0.0 else counts.sum.toDouble / counts.length
  }

  test("selective constraints (N1) have CSPI orders of magnitude below loose ones (T3)") {
    val n1 = cspiMean(Constraints.n1(5))
    val t3 = cspiMean(Constraints.t3(5, 1, 5))
    assert(n1 > 0 && t3 > 0)
    assert(t3 > 20 * n1, s"expected loose >> selective: N1=$n1 T3=$t3")
  }

  test("N1 is highly selective (CSPI mean close to 1, as in the paper)") {
    val m = cspiMean(Constraints.n1(5))
    assert(m >= 1.0 && m < 10.0, s"N1 CSPI mean $m")
  }

  test("lowering sigma increases candidate counts (T3(5) vs T3(25))") {
    assert(cspiMean(Constraints.t3(5, 1, 5)) >= cspiMean(Constraints.t3(25, 1, 5)))
  }
}
