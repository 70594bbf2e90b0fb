package repro.util

import org.apache.spark.SparkContext
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerJobStart, SparkListenerStageCompleted}
import org.apache.spark.sql.SparkSession

import java.util.concurrent.{CountDownLatch, TimeUnit}
import java.util.concurrent.atomic.AtomicLong
import scala.collection.mutable

/** Capture Spark task metrics around an action — used to report shuffle sizes
  * (the paper's `shuffleWriteBytes` measure) and wall times for the benches.
  */
object Metrics {

  final case class RunMetrics[A](wallMillis: Long, shuffleWriteBytes: Long, shuffleWriteRecords: Long,
                                 result: A)

  private val groups = new AtomicLong

  /** Run `action` (which must trigger the job and return its result) in
    * its own job group; report its wall time and the total shuffle write bytes
    * and records of the stages that group's jobs ran. Jobs of other groups are not counted.
    */
  def measure[A](spark: SparkSession)(action: => A): RunMetrics[A] = {
    val sc = spark.sparkContext
    val group = s"repro-measure-${groups.incrementAndGet()}"
    val listener = new GroupListener(group)
    sc.addSparkListener(listener)
    try {
      sc.setJobGroup(group, "Metrics.measure", interruptOnCancel = false)
      val t0 = System.nanoTime()
      val res =
        try action
        finally sc.clearJobGroup()
      val wall = (System.nanoTime() - t0) / 1000000L
      listener.awaitEvents(sc)
      RunMetrics(wall, listener.shuffleBytes, listener.shuffleRecords, res)
    } finally sc.removeSparkListener(listener)
  }

  /** Sums the shuffle write bytes and records of `group`'s stages.
    *
    * Listener events arrive asynchronously, but in the order they were
    * posted, and a job's stage events come before its `onJobEnd`. So after
    * the measured action, one tiny job in a second group marks the end: once
    * its `onJobEnd` is seen, so is every event of the group's jobs.
    */
  private final class GroupListener(group: String) extends SparkListener {
    private val markerGroup = group + "/end"
    private val markerEnded = new CountDownLatch(1)
    private val stageIds = mutable.HashSet.empty[Int]
    private var markerJob = -1
    private var bytes = 0L
    private var records = 0L

    private def groupOf(e: SparkListenerJobStart): String =
      if (e.properties == null) null else e.properties.getProperty("spark.jobGroup.id")

    override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
      val g = groupOf(e)
      if (g == group) stageIds ++= e.stageIds
      else if (g == markerGroup) markerJob = e.jobId
    }

    override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
      if (e.jobId == markerJob) markerEnded.countDown()
    }

    override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
      if (stageIds.contains(e.stageInfo.stageId)) {
        val w = e.stageInfo.taskMetrics.shuffleWriteMetrics
        bytes += w.bytesWritten
        records += w.recordsWritten
      }
    }

    def awaitEvents(sc: SparkContext): Unit = {
      sc.setJobGroup(markerGroup, "Metrics.measure end marker", interruptOnCancel = false)
      try sc.parallelize(Seq(0), 1).count()
      finally sc.clearJobGroup()
      require(markerEnded.await(60, TimeUnit.SECONDS), s"listener events of $group did not arrive")
    }

    def shuffleBytes: Long = synchronized(bytes)
    def shuffleRecords: Long = synchronized(records)
  }
}
