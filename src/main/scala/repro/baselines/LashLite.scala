package repro.baselines

import org.apache.spark.SparkContext
import org.apache.spark.rdd.RDD
import repro.core.Pattern
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
  * Same dataflow shape: item-based partitioning, one shuffle round,
  * specialized positional prefix-growth in the reduce phase.
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

    sequences
      .flatMap { t => pivotsOf(t, bcDict.value, maxFid, gamma).iterator.map(k => (k, rewrite(t, bcDict.value, maxFid, gamma, k))) }
      .groupByKey(sc.defaultParallelism)
      .flatMap { case (k, seqs) =>
        minePartition(seqs.toIndexedSeq, bcDict.value, sigma, gamma, lambda, maxFid, k)
      }
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

  /** Rewrite for pivot `k`: blank out positions with no frequent ancestor
    * `<= k` (they can never contribute an item but still count toward gaps),
    * split where more than γ consecutive blanks make the gap unbridgeable,
    * and trim blank edges. Encoded as one array with `Blank` separators kept
    * within segments; segments are returned concatenated with a split marker.
    */
  private def rewrite(t: Array[Int], dict: Dictionary, maxFid: Int, gamma: Int, k: Int): Array[Array[Int]] = {
    val usable = t.map(item => dict.anc(item).exists(a => a <= k && a <= maxFid))
    val segments = mutable.ArrayBuffer.empty[Array[Int]]
    val cur = mutable.ArrayBuffer.empty[Int]
    var blanks = 0
    for (i <- t.indices) {
      if (usable(i)) {
        if (cur.nonEmpty) for (_ <- 0 until blanks) cur += Blank
        blanks = 0
        cur += t(i)
      } else {
        blanks += 1
        if (blanks > gamma && cur.nonEmpty) {
          segments += cur.toArray; cur.clear(); blanks = 0
        }
      }
    }
    if (cur.nonEmpty) segments += cur.toArray
    segments.toArray
  }

  /** Specialized positional prefix-growth within a partition. */
  private def minePartition(
      db: IndexedSeq[Array[Array[Int]]],
      dict: Dictionary,
      sigma: Long,
      gamma: Int,
      lambda: Int,
      maxFid: Int,
      k: Int
  ): Iterator[(Pattern, Long)] = {
    val results = mutable.HashMap.empty[Pattern, Long]
    val prefix = mutable.ArrayBuffer.empty[Int]

    // entry: (tid, segment index, next start position within segment)
    type Entry = (Int, Int, Int)

    def itemsAt(tid: Int, seg: Int, pos: Int): Array[Int] = {
      val item = db(tid)(seg)(pos)
      if (item == Blank) Array.empty
      else dict.anc(item).filter(a => a <= k && a <= maxFid)
    }

    def expand(entries: Seq[Entry], hasPivot: Boolean, fromRoot: Boolean): Unit = {
      if (prefix.length >= lambda) return
      val children = mutable.LinkedHashMap.empty[Int, mutable.ArrayBuffer[Entry]]
      val seen = mutable.HashSet.empty[(Int, Int, Int, Int)]
      for ((tid, seg, start) <- entries) {
        val segArr = db(tid)(seg)
        // From the root every position starts a pattern; afterwards only the
        // next γ+1 positions are reachable.
        val limit = if (fromRoot) segArr.length - 1 else math.min(segArr.length - 1, start + gamma)
        var p = start
        while (p <= limit) {
          for (w <- itemsAt(tid, seg, p))
            if (seen.add((w, tid, seg, p)))
              children.getOrElseUpdate(w, mutable.ArrayBuffer.empty) += ((tid, seg, p + 1))
          p += 1
        }
      }
      for ((w, buf) <- children) {
        val distinctTids = buf.iterator.map(_._1).toSet.size.toLong
        if (distinctTids >= sigma) {
          prefix += w
          val childHasPivot = hasPivot || w == k
          // any prefix of length >= 2 is a complete candidate
          if (prefix.length >= 2 && childHasPivot)
            results(Pattern(prefix.toArray)) = distinctTids
          expand(buf.toSeq, childHasPivot, fromRoot = false)
          prefix.remove(prefix.length - 1)
        }
      }
    }

    val roots = for (tid <- db.indices; seg <- db(tid).indices) yield (tid, seg, 0)
    expand(roots, hasPivot = false, fromRoot = true)
    results.iterator.map { case (p, f) => (p, f) }
  }
}
