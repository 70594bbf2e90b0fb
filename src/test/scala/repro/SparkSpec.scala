package repro

import org.apache.spark.SparkContext
import org.apache.spark.sql.SparkSession
import org.scalatest.funsuite.AnyFunSuite
import repro.core.{Drivers, Pattern}
import repro.dict.Dictionary

/** Base for every Spark test: one local-mode SparkSession for the whole run.
  *
  * Driver heap is set via ``Test / javaOptions`` in build.sbt from
  * SPARK_DRIVER_MEM. Broadcast joins are disabled so that the DataFrame
  * oracle comparisons join through a shuffle.
  */
trait SparkSpec extends AnyFunSuite {
  lazy val spark: SparkSession = SparkSpec.shared
  def sc: SparkContext = spark.sparkContext

  /** `Drivers.dSeq` over `db` in 4 partitions, collected. */
  def dSeq(db: Seq[Array[Int]], dict: Dictionary, patex: String, sigma: Long): Map[Pattern, Long] =
    Drivers.dSeq(sc, sc.parallelize(db, 4), dict, patex, sigma).collect().toMap

  /** `Drivers.dCand` over `db` in 4 partitions, collected. */
  def dCand(db: Seq[Array[Int]], dict: Dictionary, patex: String, sigma: Long): Map[Pattern, Long] =
    Drivers.dCand(sc, sc.parallelize(db, 4), dict, patex, sigma).collect().toMap
}

object SparkSpec {
  lazy val shared: SparkSession = {
    val s = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro")
      .config("spark.sql.shuffle.partitions",
              sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    // One line in test output that tells the driver whether the cgroup
    // derivation saw the real limit (README § Spark target).
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }
}
