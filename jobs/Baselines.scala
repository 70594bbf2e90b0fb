package repro.jobs

import repro.eval.{Constraints, Tables}

/** Fig. 9-style comparison of NAIVE / SEMI-NAIVE / D-SEQ / D-CAND (run time,
  * shuffle size) recorded as a table.
  * `spark-submit --class repro.jobs.Baselines <jar>`
  */
object Baselines extends JobBase {
  def main(args: Array[String]): Unit = withSpark("Baselines") { spark =>
    val ds = Tables.loadDatasets(spark)
    println("=== Baselines (Fig. 9 as a table): time and shuffle size ===")
    println(Tables.baselinesTable(spark, ds, Constraints.fig9Battery))
  }
}
