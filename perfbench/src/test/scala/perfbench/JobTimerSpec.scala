package perfbench

import org.scalatest.funsuite.AnyFunSuite

import scala.concurrent.duration._
import scala.concurrent.{Await, Future}
import scala.concurrent.ExecutionContext.Implicits.global

class JobTimerSpec extends AnyFunSuite {
  private def sc = SparkTestSession.spark.sparkContext

  /** A job with one shuffle of exactly `n` records (no map-side combine). */
  private def shuffleJob(n: Int, mapTasks: Int, reduceTasks: Int): Long =
    sc.parallelize(1 to n, mapTasks).map(x => (x % 7, x)).groupByKey(reduceTasks).count()

  test("timer sums the tasks and shuffle of its own job") {
    val (result, s) = JobTimer.time(sc, "own")(shuffleJob(1000, 3, 2))
    assert(result == 7)
    assert(s.jobs == 1)
    assert(s.tasks == 3 + 2)
    assert(s.shuffleRecords == 1000)
    assert(s.shuffleBytes > 0)
    assert(s.mapStageS >= 0 && s.reduceStageS >= 0)
    assert(s.wallS > 0 && s.driverOverheadS <= s.wallS)
  }

  test("timer ignores a job that runs at the same time in another group") {
    val started = new java.util.concurrent.CountDownLatch(1)
    val other = Future {
      sc.setJobGroup("someone-else", "concurrent job", interruptOnCancel = false)
      started.countDown()
      (1 to 5).map(_ => shuffleJob(5000, 4, 4)).sum
    }
    started.await()
    val (_, s) = JobTimer.time(sc, "mine") {
      (1 to 3).map(_ => shuffleJob(1000, 3, 2)).sum
    }
    Await.result(other, 2.minutes)
    assert(s.jobs == 3)
    assert(s.tasks == 3 * (3 + 2))
    assert(s.shuffleRecords == 3 * 1000)
  }

  test("timer ignores jobs run before and after it") {
    shuffleJob(2000, 2, 2)
    val (_, s) = JobTimer.time(sc, "between")(shuffleJob(100, 1, 1))
    shuffleJob(2000, 2, 2)
    assert(s.jobs == 1 && s.tasks == 2 && s.shuffleRecords == 100)
  }
}
