package repro.core

/** D-CAND local mining (Sec. VI-B): count candidate subsequences directly on
  * the received weighted NFAs with [[PatternGrowth]]'s search.
  *
  * A prefix's projected database is, per NFA, the set of states reachable by
  * spelling the prefix from the root; an entry's `local` is the state. The
  * prefix is accepted by an NFA iff one of those states is final; its
  * frequency is the weight sum of accepting NFAs. Because acceptance is
  * per-NFA set membership, overlapping paths in one NFA never double-count.
  *
  * Only sequences whose pivot is exactly `k` (i.e. that contain `k`; all items
  * are `<= k` by construction) are emitted.
  */
object NfaMiner {

  def mine(nfas: IndexedSeq[(Nfa, Long)], sigma: Long, pivot: Int): Map[Pattern, Long] = {
    val automata = nfas.map(_._1).toArray
    val search = new PatternGrowth(nfas.map(_._2).toArray, sigma, pivot) {
      protected def extend(db: Array[Long], hasPivot: Boolean): Unit = {
        var i = 0
        while (i < db.length) {
          val nfa = db(i) >>> 32
          val a = automata(nfa.toInt)
          val es = a.edges(db(i).toInt)
          var j = 0
          while (j < es.length) {
            val label = a.labels(es(j))
            var x = 0
            while (x < label.length) { add(label(x), nfa << 32 | es(j + 1)); x += 1 }
            j += 2
          }
          i += 1
        }
      }

      protected def accepts(e: Long): Boolean = automata((e >>> 32).toInt).isFinal(e.toInt)
    }
    search.run(Array.tabulate(automata.length)(_.toLong << 32))
  }
}
