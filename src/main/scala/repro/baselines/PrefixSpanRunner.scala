package repro.baselines

import org.apache.spark.mllib.fpm.PrefixSpan
import org.apache.spark.rdd.RDD
import repro.core.Pattern

/** Wrapper around Spark MLlib's distributed PrefixSpan — the paper's "MLlib
  * setting" (Sec. VII-D): maximum length λ, arbitrary gaps, no hierarchy.
  * Equivalent to pattern expression `T1(σ, λ) = (.)[.*(.)]{0,λ-1}`.
  *
  * MLlib uses prefix-based partitioning with multiple communication rounds —
  * the architectural contrast to the paper's single-shuffle algorithms.
  */
object PrefixSpanRunner {

  def mine(sequences: RDD[Array[Int]], sigma: Long, lambda: Int): RDD[(Pattern, Long)] = {
    val n = sequences.count()
    if (math.max(sigma, 1) > n) return sequences.sparkContext.emptyRDD[(Pattern, Long)]
    val asItemsets = sequences.map(_.map(Array(_)))
    // minSupport is a fraction in MLlib; shave epsilon so ties at σ survive
    // floating-point rounding.
    val minSupport = math.max(1e-12, sigma.toDouble / n - 1e-9)
    val model = new PrefixSpan()
      .setMinSupport(minSupport)
      .setMaxPatternLength(lambda)
      .run(asItemsets)
    model.freqSequences
      .map(fs => (Pattern(fs.sequence.map(_.head)), fs.freq))
      .filter(_._2 >= sigma)
  }
}
