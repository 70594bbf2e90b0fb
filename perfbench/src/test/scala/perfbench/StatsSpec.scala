package perfbench

import org.scalatest.funsuite.AnyFunSuite

class StatsSpec extends AnyFunSuite {

  test("median of odd and even samples") {
    assert(Stats.median(Seq(3.0, 1.0, 2.0)) == 2.0)
    assert(Stats.median(Seq(4.0, 1.0, 3.0, 2.0)) == 2.5)
    assert(Stats.median(Seq(7.0)) == 7.0)
  }

  test("quartiles match Python's statistics.quantiles(xs, n=4)") {
    // Expected values printed by CPython 3 for the same inputs.
    assert(Stats.quartiles((1 to 10).map(_.toDouble)) == ((2.75, 5.5, 8.25)))
    assert(Stats.quartiles(Seq(3.5, 1.25, 9.0, 2.0)) == ((1.4375, 2.75, 7.625)))
    assert(Stats.quartiles(Seq(5.0, 1.0)) == ((0.0, 3.0, 6.0)))
    assert(Stats.quartiles(Seq(4.0)) == ((4.0, 4.0, 4.0)))
  }

  test("empty samples are rejected") {
    intercept[IllegalArgumentException](Stats.median(Nil))
    intercept[IllegalArgumentException](Stats.quartiles(Nil))
  }
}
