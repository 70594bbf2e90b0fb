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
  def oplus(u: Array[Int], q: Array[Int]): Array[Int] = {
    val minU = u(0); val minQ = q(0)
    val a = u.dropWhile(_ < minQ)
    val b = q.dropWhile(_ < minU)
    mergeDistinct(a, b)
  }

  /** Sorted-merge of two sorted distinct arrays, dropping duplicates. */
  def mergeDistinct(a: Array[Int], b: Array[Int]): Array[Int] = {
    if (a.isEmpty) return b
    if (b.isEmpty) return a
    val out = new mutable.ArrayBuilder.ofInt
    var i = 0; var j = 0
    while (i < a.length || j < b.length) {
      if (j >= b.length || (i < a.length && a(i) < b(j))) { out += a(i); i += 1 }
      else if (i >= a.length || b(j) < a(i)) { out += b(j); j += 1 }
      else { out += a(i); i += 1; j += 1 }
    }
    out.result()
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

  private def filterFrequent(outSet: Array[Int], maxFid: Int): Array[Int] =
    if (maxFid < 0) outSet else outSet.filter(w => w <= maxFid) // keeps ε (0)

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
    val reach = FstSimulator.reachFinal(t, fst, dict)
    // K(i)(q): pivot set of surviving partial runs ending at (i, q); null = none.
    val K = Array.ofDim[Array[Int]](n + 1, fst.numStates)
    if (reach(0)(fst.initial)) K(0)(fst.initial) = Array(0)

    val stateChange = new Array[Boolean](n)
    val minOutput = Array.fill(n)(Int.MaxValue)

    var i = 0
    while (i < n) {
      val item = t(i)
      var q = 0
      while (q < fst.numStates) {
        val kPrev = K(i)(q)
        if (kPrev != null) {
          for (tr <- fst.byState(q)) {
            if (tr.in.matches(item, dict) && reach(i + 1)(tr.to)) {
              val o = filterFrequent(tr.out.outputs(item, dict), maxFid)
              if (o.nonEmpty) {
                val merged = oplus(kPrev, o)
                val prev = K(i + 1)(tr.to)
                K(i + 1)(tr.to) = if (prev == null) merged else mergeDistinct(prev, merged)
                // Relevance bookkeeping for the rewrite (Sec. V-B).
                if (tr.to != q) stateChange(i) = true
                val firstNonEps = if (o(0) == 0) { if (o.length > 1) o(1) else 0 } else o(0)
                if (firstNonEps != 0 && firstNonEps < minOutput(i))
                  minOutput(i) = firstNonEps
              }
            }
          }
        }
        q += 1
      }
      i += 1
    }

    var pivots: Array[Int] = Array.empty
    var q = 0
    while (q < fst.numStates) {
      if (fst.isFinal(q) && K(n)(q) != null)
        pivots = mergeDistinct(pivots, K(n)(q))
      q += 1
    }
    GridResult(pivots.filter(_ != 0), stateChange, minOutput)
  }

  /** `K(T)` — the pivot items of `t` (Eq. 1), σ-filtered. */
  def pivots(t: Array[Int], fst: Fst, dict: Dictionary, maxFid: Int): Array[Int] =
    grid(t, fst, dict, maxFid).pivots

  /** The rewritten representation `ρk(T)`: `t` with leading and trailing
    * positions irrelevant for pivot `k` dropped (Sec. V-B).
    */
  def rewrite(t: Array[Int], g: GridResult, k: Int): Array[Int] = {
    val (first, last) = g.bounds(k)
    if (first == 0 && last == t.length - 1) t else t.slice(first, last + 1)
  }
}
