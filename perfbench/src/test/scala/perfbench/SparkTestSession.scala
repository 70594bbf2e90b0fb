package perfbench

import org.apache.spark.sql.SparkSession

/** One Spark session for the benchmark's tests, started the way the
  * benchmark starts it.
  */
object SparkTestSession {
  lazy val spark: SparkSession = Main.startSpark()
}
