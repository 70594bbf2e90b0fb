package repro.jobs

import org.apache.spark.sql.SparkSession

/** Shared SparkSession setup for the spark-submit entrypoints in `jobs/`. */
trait JobBase {
  def withSpark(appName: String)(body: SparkSession => Unit): Unit = {
    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(appName)
      .config("spark.ui.enabled", "false")
      .getOrCreate()
    try body(spark)
    finally spark.stop()
  }
}
