package perfbench

import org.apache.logging.log4j.{Level, LogManager}
import org.scalatest.funsuite.AnyFunSuite

class LoggingSpec extends AnyFunSuite {

  test("the benchmark's Spark session logs warnings but not INFO") {
    SparkTestSession.spark
    for (name <- Seq("org.apache.spark.SparkContext", "org.apache.spark.scheduler.DAGScheduler",
                     "org.apache.spark.storage.BlockManager")) {
      val logger = LogManager.getLogger(name)
      assert(!logger.isInfoEnabled, s"$name logs INFO")
      assert(logger.isEnabled(Level.WARN), s"$name drops warnings")
    }
  }
}
