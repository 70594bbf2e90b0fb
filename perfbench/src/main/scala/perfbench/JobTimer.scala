package perfbench

import org.apache.spark.SparkContext
import org.apache.spark.scheduler._

import java.util.concurrent.{CountDownLatch, TimeUnit}
import java.util.concurrent.atomic.AtomicLong
import scala.collection.mutable

/** What one timed Spark action cost, summed over the tasks of its own jobs. */
final case class JobStats(
    wallS: Double,              // from the driver call until the action returned
    workS: Double,              // summed executor run time of the tasks
    cpuS: Double,               // summed executor CPU time of the tasks
    gcS: Double,
    shuffleBytes: Long,         // shuffle write
    shuffleRecords: Long,
    shuffleWriteS: Double,
    shuffleFetchWaitS: Double,
    mapStageS: Double,          // summed spans of the shuffle-map stages
    reduceStageS: Double,       // span of the result stage
    reduceTaskMaxS: Double,     // slowest task of the result stage
    reduceTaskMedianS: Double,
    driverOverheadS: Double,    // wall time not covered by any stage span
    jobs: Int,
    tasks: Int
)

/** Times one Spark action by its job group.
  *
  * A listener keeps the jobs whose `spark.jobGroup.id` is this timer's group,
  * and sums task metrics only for their stages, so jobs that other threads run
  * in other groups are left out. Listener events arrive asynchronously; after
  * the action, the timer runs a tiny job in a second group and waits for that
  * job's end event. The bus delivers events in order, so by then every event
  * of the timed jobs has been seen, with no sleep.
  */
final class JobTimer private (sc: SparkContext, group: String) extends SparkListener {
  private val flushGroup = group + "/flush"
  private val flushed = new CountDownLatch(1)
  private val stageIds = mutable.HashSet.empty[Int]
  private val resultStages = mutable.HashSet.empty[Int]
  private val stageSpans = mutable.HashMap.empty[Int, (Long, Long)]
  private val taskTimes = mutable.HashMap.empty[Int, mutable.ArrayBuffer[Double]]
  private var flushJob = -1
  private var jobs, tasks = 0
  private var runMs, gcMs, fetchWaitMs, records, bytes = 0L
  private var cpuNs, writeNs = 0L

  private def groupOf(props: java.util.Properties): String =
    if (props == null) null else props.getProperty("spark.jobGroup.id")

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val g = groupOf(e.properties)
    if (g == flushGroup) flushJob = e.jobId
    if (g == group) {
      jobs += 1
      stageIds ++= e.stageIds
      // The result stage of a job has the highest id among its stages.
      if (e.stageIds.nonEmpty) resultStages += e.stageIds.max
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    if (e.jobId == flushJob) flushed.countDown()
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    val info = e.stageInfo
    if (stageIds.contains(info.stageId))
      for (s <- info.submissionTime; c <- info.completionTime) stageSpans(info.stageId) = (s, c)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    if (stageIds.contains(e.stageId) && e.taskMetrics != null) {
      val m = e.taskMetrics
      tasks += 1
      runMs += m.executorRunTime
      cpuNs += m.executorCpuTime
      gcMs += m.jvmGCTime
      bytes += m.shuffleWriteMetrics.bytesWritten
      records += m.shuffleWriteMetrics.recordsWritten
      writeNs += m.shuffleWriteMetrics.writeTime
      fetchWaitMs += m.shuffleReadMetrics.fetchWaitTime
      taskTimes.getOrElseUpdate(e.stageId, mutable.ArrayBuffer.empty) += m.executorRunTime / 1e3
    }
  }

  private def awaitEvents(): Unit = {
    sc.setJobGroup(flushGroup, "perfbench listener flush", interruptOnCancel = false)
    try sc.parallelize(Seq(0), 1).count()
    finally sc.clearJobGroup()
    require(flushed.await(60, TimeUnit.SECONDS), s"listener events of $group did not arrive")
  }

  private def stats(wallS: Double, startMs: Long, endMs: Long): JobStats = synchronized {
    val spans = stageSpans.toSeq.sortBy(_._1)
    val mapS = spans.collect { case (id, (s, c)) if !resultStages(id) => (c - s) / 1e3 }.sum
    val reduceS = spans.collect { case (id, (s, c)) if resultStages(id) => (c - s) / 1e3 }.sum
    val reduceTasks = resultStages.toSeq.flatMap(id => taskTimes.getOrElse(id, Nil))
    // Union of the stage intervals, clipped to the driver call.
    var covered = 0L
    var reach = startMs
    for ((s, c) <- spans.map(_._2).sortBy(_._1)) {
      val from = math.max(s, reach)
      val to = math.min(c, endMs)
      if (to > from) covered += to - from
      reach = math.max(reach, c)
    }
    JobStats(
      wallS = wallS,
      workS = runMs / 1e3,
      cpuS = cpuNs / 1e9,
      gcS = gcMs / 1e3,
      shuffleBytes = bytes,
      shuffleRecords = records,
      shuffleWriteS = writeNs / 1e9,
      shuffleFetchWaitS = fetchWaitMs / 1e3,
      mapStageS = mapS,
      reduceStageS = reduceS,
      reduceTaskMaxS = if (reduceTasks.isEmpty) 0.0 else reduceTasks.max,
      reduceTaskMedianS = if (reduceTasks.isEmpty) 0.0 else Stats.median(reduceTasks),
      driverOverheadS = math.max(0.0, wallS - covered / 1e3),
      jobs = jobs,
      tasks = tasks)
  }
}

object JobTimer {
  private val counter = new AtomicLong

  /** Run `action` in a fresh job group and return its result with the cost of
    * the jobs it ran.
    */
  def time[A](sc: SparkContext, name: String)(action: => A): (A, JobStats) = {
    val group = s"perfbench-$name-${counter.incrementAndGet()}"
    val timer = new JobTimer(sc, group)
    sc.addSparkListener(timer)
    try {
      sc.setJobGroup(group, name, interruptOnCancel = false)
      val startMs = System.currentTimeMillis()
      val t0 = System.nanoTime()
      val result =
        try action
        finally sc.clearJobGroup()
      val wallS = (System.nanoTime() - t0) / 1e9
      val endMs = System.currentTimeMillis()
      timer.awaitEvents()
      (result, timer.stats(wallS, startMs, endMs))
    } finally sc.removeSparkListener(timer)
  }
}
