package repro.core

import repro.dict.Dictionary
import repro.fst.{Fst, FstSimulator}

import scala.collection.mutable

/** Pivot search and sequence rewriting for D-SEQ (Sec. V-A/V-B).
  *
  * Finds the pivot items `K(T)` of an input sequence in time linear in `|T|`
  * (for a fixed FST) via the position–state grid DP of the paper, and computes
  * the first/last relevant position per pivot for the leading/trailing rewrite.
  *
  * Items are fids; fid 0 is ε and is strictly smaller than every item, so the
  * pivot-merge operator `⊕` needs no special casing for empty outputs.
  */
object PivotSearch {

  /** Pivot-merge `U ⊕ Q = {ω∈U | ω ≥ min Q} ∪ {ω∈Q | ω ≥ min U}` (Th. 1).
    * Inputs and output are sorted, distinct, non-empty fid arrays.
    */
  def oplus(u: Array[Int], q: Array[Int]): Array[Int] = oplus(u, q, q.length)

  /** `U ⊕ Q'` where `Q'` is the first `qLen > 0` items of `q` — the σ cap of
    * a sorted output set, without a filtered copy.
    */
  private def oplus(u: Array[Int], q: Array[Int], qLen: Int): Array[Int] = {
    var ai = 0
    while (ai < u.length && u(ai) < q(0)) ai += 1
    var bi = 0
    while (bi < qLen && q(bi) < u(0)) bi += 1
    mergeRanges(u, ai, u.length, q, bi, qLen)
  }

  /** Sorted-merge of two sorted distinct arrays, dropping duplicates. */
  def mergeDistinct(a: Array[Int], b: Array[Int]): Array[Int] =
    mergeRanges(a, 0, a.length, b, 0, b.length)

  /** Sorted-merge of `a(af until at)` and `b(bf until bt)`, dropping
    * duplicates. Returns `a` or `b` itself when the result is all of it.
    */
  private def mergeRanges(a: Array[Int], af: Int, at: Int, b: Array[Int], bf: Int, bt: Int): Array[Int] = {
    if (af == at) return if (bf == 0 && bt == b.length) b else java.util.Arrays.copyOfRange(b, bf, bt)
    if (bf == bt) return if (af == 0 && at == a.length) a else java.util.Arrays.copyOfRange(a, af, at)
    val out = new Array[Int](at - af + bt - bf)
    var i = af; var j = bf; var n = 0
    while (i < at || j < bt) {
      if (j >= bt || (i < at && a(i) < b(j))) { out(n) = a(i); i += 1 }
      else if (i >= at || b(j) < a(i)) { out(n) = b(j); j += 1 }
      else { out(n) = a(i); i += 1; j += 1 }
      n += 1
    }
    if (n == out.length) out else java.util.Arrays.copyOf(out, n)
  }

  /** Pivot items of a single run (Th. 1), in closed form. Folding `⊕` over
    * the run's σ-filtered output sets keeps exactly the items `>= L`, where
    * `L` is the largest of the sets' smallest items (ε = 0 counts as an item
    * here). So `K(r)` is every frequent non-ε item `>= L` of the run; it is
    * empty if some set has no frequent item. Two passes, no allocation per
    * step. Used directly by D-CAND and by tests; D-SEQ uses the grid DP.
    */
  def pivotsOfRun(run: FstSimulator.Run, maxFid: Int): Array[Int] = {
    val cap = if (maxFid < 0) Int.MaxValue else maxFid
    var lo = 0 // L
    var i = 0
    while (i < run.length) {
      val os = run(i)
      if (os.isEmpty || os(0) > cap) return Array.emptyIntArray
      if (os(0) > lo) lo = os(0)
      i += 1
    }
    val out = new mutable.ArrayBuilder.ofInt
    i = 0
    while (i < run.length) {
      val os = run(i)
      var j = 0
      while (j < os.length && os(j) <= cap) {
        if (os(j) >= lo && os(j) != 0) out += os(j)
        j += 1
      }
      i += 1
    }
    val ks = out.result()
    java.util.Arrays.sort(ks)
    distinctSorted(ks)
  }

  /** Drops repeats from a sorted array, in place when there are any. */
  private def distinctSorted(a: Array[Int]): Array[Int] = {
    if (a.length < 2) return a
    var n = 1
    var i = 1
    while (i < a.length) {
      if (a(i) != a(n - 1)) { a(n) = a(i); n += 1 }
      i += 1
    }
    if (n == a.length) a else java.util.Arrays.copyOf(a, n)
  }

  /** Result of the grid pass for one input sequence. Positions are 0-based.
    *
    * @param pivots        sorted `K(T)` (σ-filtered, ε removed)
    * @param stateChange   per position: does any surviving grid edge change state?
    * @param minOutput     per position: smallest frequent non-ε item producible
    *                      by any surviving grid edge (Int.MaxValue if none)
    */
  final case class GridResult(
      pivots: Array[Int],
      stateChange: Array[Boolean],
      minOutput: Array[Int]
  ) {
    /** First/last relevant position for pivot `k` (Sec. V-B): relevant means
      * state-changing or able to produce output usable in a pivot-k sequence.
      */
    def bounds(k: Int): (Int, Int) = {
      val n = stateChange.length
      var first = 0
      while (first < n && !(stateChange(first) || minOutput(first) <= k)) first += 1
      var last = n - 1
      while (last >= 0 && !(stateChange(last) || minOutput(last) <= k)) last -= 1
      if (first > last) (0, n - 1) else (first, last) // degenerate: keep whole
    }
  }

  /** Run the position–state grid DP (Fig. 5b) for sequence `t`:
    * compute `K(i, q)` for all grid coordinates on accepting runs and derive
    * `K(T)` and per-position relevance data.
    *
    * `maxFid` is the largest frequent fid (σ boundary); items above it are
    * excluded from output sets, runs forced through an all-infrequent output
    * set are discarded (they generate no candidate in `Gσπ(T)`).
    */
  def grid(t: Array[Int], fst: Fst, dict: Dictionary, maxFid: Int): GridResult = {
    val n = t.length
    val s = fst.numStates
    val cap = if (maxFid < 0) Int.MaxValue else maxFid
    val reach = FstSimulator.reachFinal(t, fst, dict)
    // K(i * s + q): pivot set of surviving partial runs ending at (i, q); null = none.
    val K = new Array[Array[Int]]((n + 1) * s)
    if (reach(fst.initial)) K(fst.initial) = Array(0)

    val stateChange = new Array[Boolean](n)
    val minOutput = Array.fill(n)(Int.MaxValue)

    var i = 0
    while (i < n) {
      val row = fst.steps(t(i), dict)
      val next = (i + 1) * s
      var q = 0
      while (q < s) {
        val kPrev = K(i * s + q)
        if (kPrev != null) {
          var j = row.start(q)
          while (j < row.start(q + 1)) {
            val to = row.to(j)
            val o = row.out(j)
            // Frequent part of the output set: its first m items (ε is 0).
            var m = 0
            while (m < o.length && o(m) <= cap) m += 1
            if (m > 0 && reach(next + to)) {
              val merged = oplus(kPrev, o, m)
              val prev = K(next + to)
              K(next + to) = if (prev == null) merged else mergeDistinct(prev, merged)
              // Relevance bookkeeping for the rewrite (Sec. V-B).
              if (to != q) stateChange(i) = true
              val firstNonEps = if (o(0) == 0) { if (m > 1) o(1) else 0 } else o(0)
              if (firstNonEps != 0 && firstNonEps < minOutput(i))
                minOutput(i) = firstNonEps
            }
            j += 1
          }
        }
        q += 1
      }
      i += 1
    }

    var pivots: Array[Int] = Array.empty
    var q = 0
    while (q < s) {
      if (fst.isFinal(q) && K(n * s + q) != null)
        pivots = mergeDistinct(pivots, K(n * s + q))
      q += 1
    }
    GridResult(pivots.filter(_ != 0), stateChange, minOutput)
  }

  /** The rewritten representation `ρk(T)`: `t` with leading and trailing
    * positions irrelevant for pivot `k` dropped (Sec. V-B).
    */
  def rewrite(t: Array[Int], g: GridResult, k: Int): Array[Int] = {
    val (first, last) = g.bounds(k)
    if (first == 0 && last == t.length - 1) t else t.slice(first, last + 1)
  }
}
