package repro.jobs

import repro.eval.{Constraints, Tables}

/** Regenerates Tab. V (speed-up over sequential DESQ-DFS).
  * `spark-submit --class repro.jobs.TableV <jar>`
  */
object TableV extends JobBase {
  def main(args: Array[String]): Unit = withSpark("TableV") { spark =>
    val ds = Tables.loadDatasets(spark)
    println("=== Table V: speed-up over sequential execution ===")
    println(Tables.tableV(spark, ds, Constraints.tableVBattery))
  }
}
