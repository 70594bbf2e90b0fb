package repro.baselines

import org.apache.spark.SparkContext
import org.apache.spark.rdd.RDD
import repro.core.{Pattern, PatternGrowth}
import repro.dict.Dictionary

import scala.collection.mutable

/** LASH-style specialized distributed miner for the "traditional" constraint
  * class `T3(σ, γ, λ)`: subsequences of 2..λ items, gap between consecutive
  * picked positions at most γ, every item generalizable to any ancestor
  * (forest hierarchies). This is the setting the paper compares against in
  * Sec. VII-D; unlike D-SEQ/D-CAND it needs no FST — pivots, rewrites and
  * local mining are computed directly from positions and ancestor sets, which
  * is exactly why the specialized algorithm is faster and less general.
  *
  * Same dataflow shape: item-based partitioning, one shuffle round, and in
  * the reduce phase positional prefix-growth on [[PatternGrowth]]'s search.
  */
object LashLite {

  def mine(
      sc: SparkContext,
      sequences: RDD[Array[Int]],
      dict: Dictionary,
      sigma: Long,
      gamma: Int,
      lambda: Int
  ): RDD[(Pattern, Long)] = {
    require(lambda >= 2, "T3 subsequences have at least 2 items")
    val maxFid = dict.maxFrequentFid(sigma)
    val bcDict = sc.broadcast(dict)

    // Pivots are frequent items, so an ancestor `<= k` is also `<= maxFid`.
    sequences
      .flatMap { t => pivotsOf(t, bcDict.value, maxFid, gamma).iterator.map(k => (k, rewrite(t, bcDict.value, gamma, k))) }
      .groupByKey(sc.defaultParallelism)
      .flatMap { case (k, seqs) => minePartition(seqs.toArray, bcDict.value, sigma, gamma, lambda, k) }
  }

  /** Frequent ancestors (<= maxFid) of the item at each position. */
  private def frequentAncs(t: Array[Int], dict: Dictionary, maxFid: Int): Array[Array[Int]] =
    t.map(item => dict.anc(item).filter(_ <= maxFid))

  /** Pivot items of `t`: `p` is a pivot iff some 2-item gap-feasible candidate
    * has maximum `p` — i.e. some position generalizes to `p` and a neighbor
    * within gap reach has a frequent ancestor `<= p`. (Longer candidates with
    * max `p` always contain such an adjacent pair.)
    */
  private def pivotsOf(t: Array[Int], dict: Dictionary, maxFid: Int, gamma: Int): Array[Int] = {
    val ancs = frequentAncs(t, dict, maxFid)
    val minAnc = ancs.map(a => if (a.isEmpty) Int.MaxValue else a.min)
    val pivots = mutable.SortedSet.empty[Int]
    for (i <- t.indices; p <- ancs(i)) {
      var j = math.max(0, i - gamma - 1)
      var ok = false
      while (!ok && j <= math.min(t.length - 1, i + gamma + 1)) {
        if (j != i && minAnc(j) <= p) ok = true
        j += 1
      }
      if (ok) pivots += p
    }
    pivots.toArray
  }

  private final val Blank = -1
  private final val Split = -2

  /** Rewrite for pivot `k`: a position whose item has no ancestor `<= k` can
    * never contribute an item but still counts toward gaps, so it becomes a
    * `Blank`; more than γ blanks in a row make the gap unbridgeable and become
    * one `Split`. Blank edges are trimmed.
    */
  private def rewrite(t: Array[Int], dict: Dictionary, gamma: Int, k: Int): Array[Int] = {
    val out = new mutable.ArrayBuilder.ofInt
    var blanks = 0
    for (item <- t) {
      if (dict.anc(item)(0) <= k) { // anc is sorted ascending
        if (out.length > 0) {
          if (blanks > gamma) out += Split
          else for (_ <- 0 until blanks) out += Blank
        }
        blanks = 0
        out += item
      } else blanks += 1
    }
    out.result()
  }

  /** Positional prefix-growth within pivot `k`'s partition. An entry is
    * `tid << 32 | p`, `p` the position after the prefix's last item.
    */
  private def minePartition(
      db: Array[Array[Int]],
      dict: Dictionary,
      sigma: Long,
      gamma: Int,
      lambda: Int,
      k: Int
  ): Iterator[(Pattern, Long)] = {
    val search = new PatternGrowth(Array.fill(db.length)(1L), sigma, k) {
      protected def extend(entries: Array[Long], hasPivot: Boolean): Unit =
        if (prefixLength < lambda) {
          // From the root every position starts a pattern; afterwards only
          // the next γ + 1 positions up to a split are in reach.
          val root = prefixLength == 0
          var i = 0
          while (i < entries.length) {
            val tid = entries(i) >>> 32
            val t = db(tid.toInt)
            var p = entries(i).toInt
            val end = if (root) t.length else math.min(t.length, p + gamma + 1)
            while (p < end && (root || t(p) != Split)) {
              if (t(p) > 0) {
                val anc = dict.anc(t(p))
                var x = 0
                while (x < anc.length && anc(x) <= k) { add(anc(x), tid << 32 | (p + 1)); x += 1 }
              }
              p += 1
            }
            i += 1
          }
        }

      // Every prefix of at least 2 items is a candidate.
      protected def accepts(entry: Long): Boolean = prefixLength > 0
    }
    search.run(Array.tabulate(db.length)(_.toLong << 32)).iterator
  }
}
