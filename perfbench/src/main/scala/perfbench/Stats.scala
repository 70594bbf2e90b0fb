package perfbench

/** Order statistics for repeated timings. */
object Stats {

  /** Median of a non-empty sample (mean of the two middle values when even). */
  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of an empty sample")
    val s = xs.sorted
    val n = s.length
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  /** First, second and third quartile, computed like Python's
    * `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so the
    * quartiles printed here match the ones a Python script computes from the
    * same values.
    */
  def quartiles(xs: Seq[Double]): (Double, Double, Double) = {
    require(xs.nonEmpty, "quartiles of an empty sample")
    val d = xs.sorted.toIndexedSeq
    val ld = d.length
    if (ld == 1) return (d(0), d(0), d(0))
    val m = ld + 1
    def q(i: Int): Double = {
      val j = math.min(math.max(i * m / 4, 1), ld - 1)
      val delta = i * m - j * 4
      (d(j - 1) * (4 - delta) + d(j) * delta) / 4
    }
    (q(1), q(2), q(3))
  }
}
