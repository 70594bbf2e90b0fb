package repro.core

import repro.dict.Dictionary
import repro.fst.{Fst, FstSimulator}

import scala.collection.mutable

/** Pivot search and sequence rewriting for D-SEQ (Sec. V-A/V-B).
  *
  * Finds the pivot items `K(T)` of an input sequence in time linear in `|T|`
  * (for a fixed FST) on the position–state grid of the paper, with two
  * integer passes in place of its `⊕` set DP, and computes the first/last
  * relevant position per pivot for the leading/trailing rewrite.
  *
  * Items are fids; fid 0 is ε and is strictly smaller than every item, so an
  * ε-only output set needs no special casing: its floor is 0.
  */
object PivotSearch {

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

  /** Result of the grid passes for one input sequence. Positions are 0-based.
    * A surviving grid edge is one on a σ-feasible accepting run: the forward
    * pass reaches its source and the backward pass leaves its target through
    * output sets that each have a frequent item or ε.
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

  /** The position–state grid (Fig. 5b) for sequence `t` in closed form.
    * Folding Th. 1's `⊕` over a run's σ-filtered output sets keeps exactly
    * its frequent non-ε items `>= L`, `L` the largest of its sets' floors
    * (smallest items `<= maxFid`, ε = 0 counting as an item); the tests'
    * `PivotFold` holds both the fold and this closed form. So an
    * edge `e` from `(i, q)` to `(i + 1, q')` with output set `O` gives `K(T)`
    * the frequent non-ε items of `O` that are `>= max(F(i, q), floor(O),
    * B(i + 1, q'))`: the least `L` over the runs through `e`, with `F` the
    * least largest floor over run prefixes into `(i, q)` (forward pass) and
    * `B` over run suffixes out of `(i + 1, q')` ([[FstSimulator.floors]]).
    *
    * `maxFid` is the largest frequent fid (σ boundary); runs forced through a
    * set without a frequent item or ε generate no candidate in `Gσπ(T)`, so
    * their edges do not survive.
    */
  def grid(t: Array[Int], fst: Fst, dict: Dictionary, maxFid: Int): GridResult = {
    val n = t.length
    val s = fst.numStates
    val cap = if (maxFid < 0) Int.MaxValue else maxFid
    val back = FstSimulator.floors(t, fst, dict, cap)
    // F(i, q) for the current position i and the next one.
    var fwd = Array.fill(s)(Int.MaxValue)
    var fwdNext = new Array[Int](s)
    fwd(fst.initial) = 0

    val pivots = new mutable.ArrayBuilder.ofInt
    val stateChange = new Array[Boolean](n)
    val minOutput = Array.fill(n)(Int.MaxValue)

    var i = 0
    while (i < n) {
      val row = fst.steps(t(i), dict)
      val next = (i + 1) * s
      java.util.Arrays.fill(fwdNext, Int.MaxValue)
      var q = 0
      while (q < s) {
        // A cell without a σ-feasible suffix starts no surviving edge.
        if (fwd(q) < Int.MaxValue && back(i * s + q) < Int.MaxValue) {
          var j = row.start(q)
          while (j < row.start(q + 1)) {
            val to = row.to(j)
            val o = row.out(j)
            if (o(0) <= cap) {
              val f = math.max(fwd(q), o(0))
              if (f < fwdNext(to)) fwdNext(to) = f
              val lo = math.max(f, back(next + to))
              if (lo < Int.MaxValue) {
                // A surviving edge: its frequent non-ε items >= lo are pivots.
                var m = 0
                while (m < o.length && o(m) <= cap) {
                  if (o(m) >= lo && o(m) != 0) pivots += o(m)
                  m += 1
                }
                // Relevance bookkeeping for the rewrite (Sec. V-B).
                if (to != q) stateChange(i) = true
                val firstNonEps = if (o(0) == 0) { if (m > 1) o(1) else 0 } else o(0)
                if (firstNonEps != 0 && firstNonEps < minOutput(i))
                  minOutput(i) = firstNonEps
              }
            }
            j += 1
          }
        }
        q += 1
      }
      val tmp = fwd; fwd = fwdNext; fwdNext = tmp
      i += 1
    }

    val ks = pivots.result()
    java.util.Arrays.sort(ks)
    GridResult(distinctSorted(ks), stateChange, minOutput)
  }

  /** The rewritten representation `ρk(T)`: `t` with leading and trailing
    * positions irrelevant for pivot `k` dropped (Sec. V-B).
    */
  def rewrite(t: Array[Int], g: GridResult, k: Int): Array[Int] = {
    val (first, last) = g.bounds(k)
    if (first == 0 && last == t.length - 1) t else t.slice(first, last + 1)
  }
}
