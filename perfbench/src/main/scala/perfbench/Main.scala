package perfbench

import org.apache.spark.sql.SparkSession

import java.lang.management.ManagementFactory
import java.nio.file.Paths
import scala.util.control.NonFatal

/** One reported number; for a median, `samples` holds the values it is the
  * median of.
  */
final case class Metric(name: String, value: Double, unit: String, samples: Seq[Double] = Nil)

/** What a benchmark run found: mining runs attempted and failed (an exception
  * or a result that differs from sequential DESQ-DFS), and its metrics.
  */
final case class Outcome(attempted: Int, failed: Int, metrics: Seq[Metric])

/** Benchmark entry point.
  *
  * {{{
  * Main --workload <name> --seed <n> --seconds <s> --trace <0|1> --out <dir>
  * }}}
  *
  * `--trace 0` prints the end-to-end metrics of [[Timed]]; `--trace 1` the
  * per-layer metrics of [[LayerTrace]]. The last line of standard output is
  * one JSON object with `correct`, `attempted`, `failed` and `metrics`.
  * Spark's INFO logging is turned off by the `log4j2.properties` on this
  * program's classpath, so the metric lines stay readable.
  */
object Main {

  def main(args: Array[String]): Unit = {
    val opts = parseArgs(args)
    val workload = Workloads.byName(opts("workload")).getOrElse {
      System.err.println(s"unknown workload ${opts("workload")}; " +
        s"known: ${Workloads.all.map(_.name).mkString(", ")}")
      sys.exit(2)
    }
    val seed = opts("seed").toLong
    val seconds = opts("seconds").toInt
    val trace = opts("trace") == "1"
    val outcome =
      try {
        if (trace) LayerTrace.run(workload, seed, Paths.get(opts("out")))
        else Timed.run(workload, seed, seconds)
      } catch {
        case NonFatal(e) =>
          e.printStackTrace()
          sys.exit(1)
      }
    for (m <- outcome.metrics) {
      val spread =
        if (m.samples.length < 2) ""
        else {
          val (q1, _, q3) = Stats.quartiles(m.samples)
          s"(median of ${m.samples.length}, quartiles ${fmt(q1)} .. ${fmt(q3)})"
        }
      println(f"metric ${m.name}%-36s ${fmt(m.value)}%14s ${m.unit}%-6s $spread")
    }
    println(toJson(outcome))
    System.out.flush()
    // Spark leaves non-daemon threads behind; end the JVM explicitly.
    sys.exit(0)
  }

  private val usage =
    "usage: Main --workload <name> --seed <n> --seconds <s> --trace <0|1> --out <dir>"

  private def parseArgs(args: Array[String]): Map[String, String] = {
    val opts = args.grouped(2).collect {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
    }.toMap
    val ok = args.length == 10 && Seq("workload", "seed", "seconds", "trace", "out").forall(opts.contains) &&
      opts("seed").toLongOption.isDefined && opts("seconds").toIntOption.isDefined &&
      Set("0", "1")(opts("trace"))
    if (!ok) { System.err.println(usage); sys.exit(2) }
    opts
  }

  /** A local Spark session on every core. Its scratch files go to
    * `java.io.tmpdir`, which run.py points into the benchmark's directory.
    */
  def startSpark(): SparkSession =
    SparkSession.builder
      .master("local[*]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .getOrCreate()

  /** One line describing where the numbers were taken. */
  def environment(spark: SparkSession): String = {
    val sc = spark.sparkContext
    val rt = Runtime.getRuntime
    s"env nproc=${rt.availableProcessors} master=${sc.master} " +
      s"defaultParallelism=${sc.defaultParallelism} heap_max_mb=${rt.maxMemory >> 20} " +
      s"jdk=${System.getProperty("java.version")} " +
      s"gc=${gcNames.mkString("+")} spark=${sc.version} " +
      s"commit=${System.getProperty("perfbench.commit", "unknown")}"
  }

  private def gcNames: Seq[String] = {
    import scala.jdk.CollectionConverters._
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getName.replace(' ', '_')).toSeq
  }

  def elapsedS(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  private def fmt(v: Double): String =
    if (v == math.rint(v) && math.abs(v) < 1e15) f"$v%.0f" else f"$v%.4f"

  def toJson(o: Outcome): String = {
    val ms = o.metrics.map { m =>
      require(!m.value.isNaN && !m.value.isInfinite, s"metric ${m.name} is ${m.value}")
      s""""${m.name}": {"value": ${m.value}, "unit": "${m.unit}"}"""
    }
    s"""{"correct": ${o.failed == 0}, "attempted": ${o.attempted}, "failed": ${o.failed}, """ +
      s""""metrics": {${ms.mkString(", ")}}}"""
  }
}
