package repro.util

import repro.SparkSpec

class MetricsSpec extends SparkSpec {


  test("wallMillis times the action only, with no fixed 200 ms added") {
    val m = Metrics.measure(spark)(42L)
    assert(m.result == 42L)
    assert(m.wallMillis < 100, s"a no-op action took ${m.wallMillis} ms")
    val slept = Metrics.measure(spark) { Thread.sleep(50); 1L }
    assert(slept.wallMillis >= 50 && slept.wallMillis < 200, s"a 50 ms action took ${slept.wallMillis} ms")
  }

  test("shuffle bytes are those of the measured jobs only") {
    def shuffleJob(): Long = sc.parallelize(1 to 2000, 4).map(i => (i % 97, i)).groupByKey(4).count()
    val alone = Metrics.measure(spark)(shuffleJob())
    assert(alone.result == 97L && alone.shuffleWriteBytes > 0)
    assert(alone.shuffleWriteRecords == 2000L)
    // A job without a shuffle adds nothing; a second shuffle job doubles the bytes and records.
    val withCount = Metrics.measure(spark) { sc.parallelize(1 to 100).count(); shuffleJob() }
    assert(withCount.shuffleWriteBytes == alone.shuffleWriteBytes)
    assert(withCount.shuffleWriteRecords == alone.shuffleWriteRecords)
    val twice = Metrics.measure(spark) { shuffleJob(); shuffleJob() }
    assert(twice.shuffleWriteBytes == 2 * alone.shuffleWriteBytes)
    assert(twice.shuffleWriteRecords == 2 * alone.shuffleWriteRecords)
    val none = Metrics.measure(spark)(sc.parallelize(1 to 100).count())
    assert(none.shuffleWriteBytes == 0 && none.shuffleWriteRecords == 0)
  }
}
