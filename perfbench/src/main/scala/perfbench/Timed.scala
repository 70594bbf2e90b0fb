package perfbench

import com.sun.management.GarbageCollectionNotificationInfo
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.SparkSession
import repro.core.{DesqDfs, Drivers}
import repro.data.{SeqDB, SeqData}
import repro.fst.FstCompiler

import java.lang.management.ManagementFactory
import javax.management.openmbean.CompositeData
import javax.management.{Notification, NotificationEmitter, NotificationListener}
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal

/** The untraced, timed run: set-up, a warm-up, then rounds of sequential
  * DESQ-DFS, D-SEQ and D-CAND until the time is up, each result checked
  * against the first sequential one by fingerprint. Reports medians over the
  * rounds.
  */
object Timed {
  /** Set-ups per run; `setup_s` is their median. */
  val SetupReps = 7
  /** Rounds run even when the time is up. */
  val MinRounds = 3

  def run(w: Workload, seed: Long, seconds: Int): Outcome = {
    val setup = mutable.ArrayBuffer.empty[Double]
    var spark: SparkSession = null
    var db: SeqDB = null
    for (_ <- 1 to SetupReps) {
      if (spark != null) spark.stop()
      val t0 = System.nanoTime()
      spark = Main.startSpark()
      db = SeqData.encode(w.generate(spark, seed))
      db.sequences.count()
      setup += Main.elapsedS(t0)
    }
    println(w.describe(seed))
    println(Main.environment(spark))
    val sc = spark.sparkContext
    val dict = db.dict
    val fst = FstCompiler.compile(w.patex, dict)
    val maxFid = dict.maxFrequentFid(w.sigma)
    val seqs = db.sequences.collect()

    def desqDfs(part: Array[Array[Int]]): Fingerprint =
      Fingerprint.of(DesqDfs.mine(part.map((_, 1L)).toIndexedSeq, fst, dict, w.sigma, maxFid))
    def dSeq(rdd: RDD[Array[Int]]): (Fingerprint, JobStats) =
      JobTimer.time(sc, "dseq")(Fingerprint.of(Drivers.dSeq(sc, rdd, dict, w.patex, w.sigma)))
    def dCand(rdd: RDD[Array[Int]]): (Fingerprint, JobStats) =
      JobTimer.time(sc, "dcand")(Fingerprint.of(Drivers.dCand(sc, rdd, dict, w.patex, w.sigma)))

    // Warm-up on a quarter of the sequences: the JIT compiles the same code
    // paths as in a full round, at a quarter of its cost.
    val quarter = seqs.take(seqs.length / 4)
    val quarterRdd = sc.parallelize(quarter.toSeq, sc.defaultParallelism).cache()
    desqDfs(quarter); dSeq(quarterRdd); dCand(quarterRdd)
    quarterRdd.unpersist()

    val samples = mutable.LinkedHashMap.empty[String, mutable.ArrayBuffer[Double]]
    def record(name: String, v: Double): Unit =
      samples.getOrElseUpdate(name, mutable.ArrayBuffer.empty) += v
    var attempted, failed = 0
    var reference: Option[Fingerprint] = None
    val heap = new HeapMonitor

    /** Run one miner and record its metrics if its result equals the
      * reference; the first sequential result becomes the reference.
      */
    def mine(algo: String)(body: => (Fingerprint, Option[JobStats])): Unit = {
      attempted += 1
      System.gc()
      heap.reset()
      val t0 = System.nanoTime()
      try {
        val (fp, stats) = body
        val wall = Main.elapsedS(t0)
        if (reference.isEmpty && algo == "desqdfs") {
          reference = Some(fp)
          println(s"reference sequential DESQ-DFS: $fp")
        }
        if (reference.contains(fp)) {
          record("heap_peak_mb", heap.peakMb)
          record(s"${algo}_s", stats.fold(wall)(_.wallS))
          for (s <- stats) {
            record(s"${algo}_work_s", s.workS)
            record(s"${algo}_shuffle_mb", s.shuffleBytes / 1e6)
            record(s"${algo}_shuffle_records", s.shuffleRecords.toDouble)
          }
        } else {
          failed += 1
          System.err.println(s"$algo: fingerprint $fp differs from sequential ${reference.orNull}")
        }
      } catch {
        case NonFatal(e) =>
          failed += 1
          System.err.println(s"$algo failed: $e")
      }
    }

    // Start a round only if it should end within `seconds`, judged by the
    // previous round, but run at least MinRounds.
    val t0 = System.nanoTime()
    var rounds = 0
    var lastRoundS = 0.0
    while (rounds < MinRounds || Main.elapsedS(t0) + lastRoundS <= seconds) {
      val r0 = System.nanoTime()
      mine("desqdfs")((desqDfs(seqs), None))
      mine("dseq") { val (fp, s) = dSeq(db.sequences); (fp, Some(s)) }
      mine("dcand") { val (fp, s) = dCand(db.sequences); (fp, Some(s)) }
      lastRoundS = Main.elapsedS(r0)
      rounds += 1
    }
    heap.close()
    spark.stop()
    for ((name, xs) <- samples.toSeq :+ ("setup_s" -> setup))
      println(s"samples $name ${xs.map(x => f"$x%.4f").mkString(" ")}")

    def med(name: String, unit: String): Metric = {
      val xs = samples.getOrElse(name, mutable.ArrayBuffer(Double.NaN))
      Metric(name, Stats.median(xs.toSeq), unit, xs.toSeq)
    }
    val metrics = Seq(
      Metric("setup_s", Stats.median(setup.toSeq), "s", setup.toSeq),
      med("desqdfs_s", "s"), med("dseq_s", "s"), med("dcand_s", "s"),
      med("dseq_work_s", "s"), med("dcand_work_s", "s"),
      med("dseq_shuffle_mb", "MB"), med("dcand_shuffle_mb", "MB"),
      med("dseq_shuffle_records", "count"), med("dcand_shuffle_records", "count"),
      Metric("ok_frac", (attempted - failed).toDouble / attempted, "ratio"),
      med("heap_peak_mb", "MB"))
    println(f"failed_frac ${failed.toDouble / attempted}%.4f ($failed of $attempted mining runs, $rounds timed rounds)")
    Outcome(attempted, failed, metrics)
  }
}

/** Peak old-generation occupancy right after a garbage collection, from the
  * JVM's GC notifications, since the last [[reset]]. A reset right after a
  * full collection starts from the live heap that collection left.
  */
final class HeapMonitor extends NotificationListener {
  private val emitters = ManagementFactory.getGarbageCollectorMXBeans.asScala.collect {
    case e: NotificationEmitter => e
  }.toSeq
  emitters.foreach(_.addNotificationListener(this, null, null))
  @volatile private var peak = 0L

  private def isOldGen(pool: String): Boolean =
    pool.contains("Old") || pool.contains("Tenured")

  override def handleNotification(n: Notification, handback: Any): Unit =
    if (n.getType == GarbageCollectionNotificationInfo.GARBAGE_COLLECTION_NOTIFICATION) {
      val info = GarbageCollectionNotificationInfo.from(n.getUserData.asInstanceOf[CompositeData])
      for ((pool, usage) <- info.getGcInfo.getMemoryUsageAfterGc.asScala if isOldGen(pool))
        synchronized { peak = math.max(peak, usage.getUsed) }
    }

  private val oldPools = ManagementFactory.getMemoryPoolMXBeans.asScala.filter(p => isOldGen(p.getName)).toSeq

  def reset(): Unit = synchronized {
    peak = oldPools.flatMap(p => Option(p.getCollectionUsage)).map(_.getUsed).sum
  }
  def peakMb: Double = synchronized { peak / 1e6 }
  def close(): Unit = emitters.foreach(_.removeNotificationListener(this))
}
