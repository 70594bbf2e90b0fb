package perfbench

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Pattern

class FingerprintSpec extends AnyFunSuite {
  private val result = Seq(
    Pattern(1, 2) -> 7L, Pattern(2, 1) -> 7L, Pattern(3) -> 12L, Pattern(1, 2, 3) -> 5L)

  test("fingerprint ignores the order of the patterns") {
    val fp = Fingerprint.of(result)
    assert(Fingerprint.of(result.reverse) == fp)
    assert(Fingerprint.of(result.toMap) == fp)
    assert(fp.count == 4)
  }

  test("fingerprint changes when one support changes") {
    val fp = Fingerprint.of(result)
    val bumped = result.updated(2, Pattern(3) -> 13L)
    assert(Fingerprint.of(bumped) != fp)
  }

  test("fingerprint changes when items are reordered within a pattern or dropped") {
    val fp = Fingerprint.of(result)
    assert(Fingerprint.of(result.updated(0, Pattern(1, 3) -> 7L)) != fp)
    assert(Fingerprint.of(result.tail) != fp)
  }

  test("merging partial fingerprints equals fingerprinting the whole") {
    val (a, b) = result.splitAt(1)
    assert(Fingerprint.of(a).merge(Fingerprint.of(b)) == Fingerprint.of(result))
  }

  test("fingerprint computed by Spark equals the local one") {
    val sc = SparkTestSession.spark.sparkContext
    assert(Fingerprint.of(sc.parallelize(result, 3)) == Fingerprint.of(result))
  }
}
