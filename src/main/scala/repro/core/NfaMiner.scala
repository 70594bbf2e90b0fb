package repro.core

import scala.collection.mutable

/** D-CAND local mining (Sec. VI-B): count candidate subsequences directly on
  * the received weighted NFAs with a pattern-growth search.
  *
  * A prefix's projected database is, per NFA, the set of states reachable by
  * spelling the prefix from the root. The prefix is accepted by an NFA iff one
  * of those states is final; its frequency is the weight sum of accepting
  * NFAs. Because acceptance is per-NFA set membership, overlapping paths in
  * one NFA never double-count.
  *
  * A projected database is a sorted array of packed `(nfa index, state)`
  * longs. A node's children come from one sort of the packed
  * `(item, nfa index, state)` triples its entries reach in one step: each run
  * of equal items is one child, and within it the distinct entries are the
  * child's projected database.
  *
  * Only sequences whose pivot is exactly `k` (i.e. that contain `k`; all items
  * are `<= k` by construction) are emitted.
  */
object NfaMiner {

  def mine(nfas: IndexedSeq[(Nfa, Long)], sigma: Long, pivot: Int): Map[Pattern, Long] = {
    if (nfas.isEmpty) return Map.empty
    val automata = nfas.map(_._1).toArray
    val weight = nfas.map(_._2).toArray

    // Bit layout of a triple: item | nfa index | state.
    var maxItem = 0
    for (nfa <- automata; es <- nfa.edges) {
      var j = 0
      while (j < es.length) {
        val label = es(j)._1 // sorted
        if (label.nonEmpty) {
          require(label(0) >= 0, s"NfaMiner: negative item ${label(0)}")
          maxItem = math.max(maxItem, label(label.length - 1))
        }
        j += 1
      }
    }
    val stateBits = bitsFor(automata.iterator.map(_.numStates).max - 1)
    val nfaBits = bitsFor(automata.length - 1)
    val itemBits = bitsFor(maxItem)
    require(stateBits + nfaBits + itemBits <= 63,
      s"NfaMiner: cannot pack (item, nfa, state) into 63 bits: largest item $maxItem " +
        s"($itemBits bits), ${automata.length} NFAs ($nfaBits bits), " +
        s"up to ${1L << stateBits} states ($stateBits bits)")
    val itemShift = stateBits + nfaBits
    val entryMask = (1L << itemShift) - 1
    val stateMask = (1L << stateBits) - 1

    val results = mutable.HashMap.empty[Pattern, Long]
    val prefix = mutable.ArrayBuffer.empty[Int]

    def expand(db: Array[Long], hasPivot: Boolean): Unit = {
      var m = 0
      var k = 0
      while (k < db.length) {
        val es = automata((db(k) >>> stateBits).toInt).edges((db(k) & stateMask).toInt)
        var j = 0
        while (j < es.length) { m += es(j)._1.length; j += 1 }
        k += 1
      }
      val triples = new Array[Long](m)
      m = 0
      k = 0
      while (k < db.length) {
        val base = db(k) & ~stateMask
        val es = automata((db(k) >>> stateBits).toInt).edges((db(k) & stateMask).toInt)
        var j = 0
        while (j < es.length) {
          val (label, t) = es(j)
          var x = 0
          while (x < label.length) {
            triples(m) = label(x).toLong << itemShift | base | t
            m += 1
            x += 1
          }
          j += 1
        }
        k += 1
      }
      java.util.Arrays.sort(triples)

      var g = 0
      while (g < m) {
        val item = triples(g) >>> itemShift
        var end = g + 1
        while (end < m && (triples(end) >>> itemShift) == item) end += 1
        // Weight of the NFAs reaching the child (bound) and of those accepting it.
        var bound = 0L
        var support = 0L
        var distinct = 0
        var i = g
        while (i < end) {
          val ni = ((triples(i) & entryMask) >>> stateBits).toInt
          var accepts = false
          while (i < end && ((triples(i) & entryMask) >>> stateBits).toInt == ni) {
            if (i == g || triples(i) != triples(i - 1)) {
              distinct += 1
              if (automata(ni).isFinal((triples(i) & stateMask).toInt)) accepts = true
            }
            i += 1
          }
          bound += weight(ni)
          if (accepts) support += weight(ni)
        }
        if (bound >= sigma) {
          val child = new Array[Long](distinct)
          var d = 0
          i = g
          while (i < end) {
            if (i == g || triples(i) != triples(i - 1)) { child(d) = triples(i) & entryMask; d += 1 }
            i += 1
          }
          val w = item.toInt
          prefix += w
          val childHasPivot = hasPivot || w == pivot
          if (support >= sigma && childHasPivot)
            results(Pattern(prefix.toArray)) = support
          expand(child, childHasPivot)
          prefix.remove(prefix.length - 1)
        }
        g = end
      }
    }

    expand(Array.tabulate(automata.length)(ni => ni.toLong << stateBits), hasPivot = false)
    results.toMap
  }

  /** Bits needed to store the non-negative value `x`. */
  private def bitsFor(x: Int): Int = 32 - Integer.numberOfLeadingZeros(x)
}
