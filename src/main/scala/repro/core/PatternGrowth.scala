package repro.core

import scala.collection.mutable

/** The pattern-growth search of three miners: pivot-restricted DESQ-DFS for
  * D-SEQ (Sec. V-C), NFA mining for D-CAND (Sec. VI-B) and LASH-lite's
  * positional mining (Sec. VII-D), as DESQ defines it once.
  *
  * The search grows a prefix one item at a time. A node's projected database
  * is a sorted array of distinct entries `seq << 32 | local`, `local` being a
  * miner's non-negative state of sequence `seq` after spelling the prefix.
  * A miner supplies the one-item extensions of a database ([[extend]]) and
  * whether an entry completes its sequence's match ([[accepts]]).
  *
  * A child's entries arrive grouped by sequence. The weight of its distinct
  * sequences bounds the support of every extension of it, and the weight of
  * those with an accepting entry is its own support. With a pivot, only
  * prefixes that hold it are emitted.
  *
  * @param weights per sequence, its multiplicity
  * @param pivot   the item every emitted prefix holds, or 0 (ε, never an
  *                item) when unrestricted
  */
private[repro] abstract class PatternGrowth(weights: Array[Long], sigma: Long, pivot: Int) {
  private val results = mutable.HashMap.empty[Pattern, Long]
  private val prefix = mutable.ArrayBuffer.empty[Int]
  private var children: mutable.LongMap[mutable.ArrayBuilder.ofLong] = _

  /** Adds every one-item extension of the entries of `db` through [[add]],
    * in the order of `db`. `hasPivot` tells whether the node's prefix holds
    * the pivot.
    */
  protected def extend(db: Array[Long], hasPivot: Boolean): Unit

  /** Whether `entry` completes its sequence's match of the prefix. */
  protected def accepts(entry: Long): Boolean

  /** The length of the prefix being extended. */
  protected final def prefixLength: Int = prefix.length

  /** Adds `entry` to the projected database of the child for `item`. */
  protected final def add(item: Int, entry: Long): Unit = {
    var b = children.getOrNull(item)
    if (b == null) { b = new mutable.ArrayBuilder.ofLong; children.update(item, b) }
    b += entry
  }

  /** Mines from the root's projected database: every frequent prefix with
    * its support.
    */
  final def run(root: Array[Long]): Map[Pattern, Long] = {
    expand(root, hasPivot = false)
    results.toMap
  }

  private def expand(db: Array[Long], hasPivot: Boolean): Unit = {
    val kids = mutable.LongMap.empty[mutable.ArrayBuilder.ofLong]
    children = kids
    extend(db, hasPivot)
    kids.foreachEntry { (item, builder) =>
      val entries = builder.result()
      var bound = 0L
      var support = 0L
      var last = -1L
      var counted = false
      var i = 0
      while (i < entries.length) {
        val e = entries(i)
        val seq = e >>> 32
        if (seq != last) { bound += weights(seq.toInt); last = seq; counted = false }
        if (!counted && accepts(e)) { support += weights(seq.toInt); counted = true }
        i += 1
      }
      if (bound >= sigma) {
        val w = item.toInt
        prefix += w
        val childHasPivot = hasPivot || w == pivot
        if (support >= math.max(sigma, 1) && (pivot == 0 || childHasPivot))
          results(Pattern(prefix.toArray)) = support
        expand(sortedDistinct(entries), childHasPivot)
        prefix.remove(prefix.length - 1)
      }
    }
  }

  /** Sorts `a` in place and returns its distinct values. */
  private def sortedDistinct(a: Array[Long]): Array[Long] = {
    java.util.Arrays.sort(a)
    var n = 0
    var i = 0
    while (i < a.length) {
      if (n == 0 || a(i) != a(n - 1)) { a(n) = a(i); n += 1 }
      i += 1
    }
    if (n == a.length) a else java.util.Arrays.copyOf(a, n)
  }
}
