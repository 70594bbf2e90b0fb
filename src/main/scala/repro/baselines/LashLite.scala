package repro.baselines

import org.apache.spark.SparkContext
import org.apache.spark.rdd.RDD
import repro.core.{Drivers, Pattern, PatternGrowth}
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
  * Same dataflow as D-SEQ and D-CAND (`Drivers.minePivots`): item-based
  * partitioning, one shuffle round, and in the reduce phase positional
  * prefix-growth on [[PatternGrowth]]'s search.
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
    Drivers.minePivots(sequences)(_.flatMap(records(_, bcDict.value, maxFid, gamma)))(
      minePivot(_, _, bcDict.value, sigma, gamma, lambda))
  }

  /** LASH-lite's map side: `(k, rewrite of t for k)` per pivot `k` of `t`.
    * `p` is a pivot iff some 2-item gap-feasible candidate has maximum `p` —
    * i.e. some position generalizes to `p` and a neighbor within gap reach
    * has a frequent ancestor `<= p`. (Longer candidates with max `p` always
    * contain such an adjacent pair.)
    */
  private[repro] def records(t: Array[Int], dict: Dictionary, maxFid: Int,
                             gamma: Int): Iterator[(Int, Array[Int])] = {
    val ancs = t.map(item => dict.anc(item).filter(_ <= maxFid)) // frequent ancestors per position
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
    pivots.iterator.map(k => (k, rewrite(t, dict, gamma, k)))
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
    *
    * While the prefix lacks `k`, an item other than `k` picked at position
    * `p` is kept only if the next position `r > p` whose item generalizes to
    * `k` comes before the next split and within the picks left,
    * `r − p <= (λ − |child prefix|)·(γ + 1)`. Other entries can never reach
    * `k`, and only patterns holding `k` are emitted.
    */
  private[repro] def minePivot(
      k: Int,
      rewrites: IndexedSeq[Array[Int]],
      dict: Dictionary,
      sigma: Long,
      gamma: Int,
      lambda: Int
  ): Iterator[(Pattern, Long)] = {
    val seqs = rewrites.toArray
    // nextK(tid)(p) is that `r`, or Int.MaxValue if there is none.
    val nextK = seqs.map { t =>
      val next = new Array[Int](t.length)
      var r = Int.MaxValue
      for (p <- t.indices.reverse) {
        next(p) = r
        if (t(p) == Split) r = Int.MaxValue
        else if (t(p) > 0 && dict.isDesc(t(p), k)) r = p
      }
      next
    }
    val search = new PatternGrowth(Array.fill(seqs.length)(1L), sigma, k) {
      protected def extend(entries: Array[Long], hasPivot: Boolean): Unit =
        if (prefixLength < lambda) {
          // From the root every position starts a pattern; afterwards only
          // the next γ + 1 positions up to a split are in reach.
          val root = prefixLength == 0
          val reach = (lambda - prefixLength - 1) * (gamma + 1)
          var i = 0
          while (i < entries.length) {
            val tid = entries(i) >>> 32
            val t = seqs(tid.toInt)
            val next = nextK(tid.toInt)
            var p = entries(i).toInt
            val end = if (root) t.length else math.min(t.length, p + gamma + 1)
            while (p < end && (root || t(p) != Split)) {
              if (t(p) > 0) {
                val reachesK = hasPivot || next(p) - p <= reach
                val anc = dict.anc(t(p))
                var x = 0 // k is frequent, so every ancestor <= k is too
                while (x < anc.length && anc(x) <= k) {
                  if (reachesK || anc(x) == k) add(anc(x), tid << 32 | (p + 1))
                  x += 1
                }
              }
              p += 1
            }
            i += 1
          }
        }

      // Every prefix of at least 2 items is a candidate.
      protected def accepts(entry: Long): Boolean = prefixLength > 0
    }
    search.run(Array.tabulate(seqs.length)(_.toLong << 32)).iterator
  }
}
