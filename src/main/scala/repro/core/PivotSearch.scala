package repro.core

import repro.dict.Dictionary
import repro.fst.{Fst, FstSimulator}

import scala.collection.mutable

/** Pivot search and sequence rewriting for D-SEQ (Sec. V-A/V-B).
  *
  * Finds the pivot items `K(T)` of an input sequence in time linear in `|T|`
  * (for a fixed FST) on the position–state grid of the paper, with two
  * integer passes in place of its `⊕` set DP, and trims the sequence per pivot.
  *
  * Items are fids; fid 0 is ε and is strictly smaller than every item, so an
  * ε-only output set needs no special casing: its floor is 0.
  */
object PivotSearch {

  /** Result of the grid passes for one input sequence. Positions are 0-based. A surviving
    * grid edge is one on a σ-feasible accepting run: the forward pass reaches its source and
    * the backward pass leaves its target through output sets that each have a frequent item or ε.
    *
    * @param pivots    sorted `K(T)` (σ-filtered, ε removed)
    * @param minPivot  per position, the smallest pivot it is relevant for (Sec. V-B): 0
    *                  if a surviving edge there changes state, else the smallest frequent
    *                  non-ε item such an edge outputs (Int.MaxValue if none)
    */
  final case class GridResult(pivots: Array[Int], minPivot: Array[Int])

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
    val back = FstSimulator.floors(t, fst, dict, maxFid)
    // F(i, q) for the current position i and the next one.
    var fwd = Array.fill(s)(Int.MaxValue)
    var fwdNext = new Array[Int](s)
    fwd(fst.initial) = 0

    val pivots = new mutable.ArrayBuilder.ofInt
    val minPivot = Array.fill(n)(Int.MaxValue)

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
            if (o(0) <= maxFid) {
              val f = math.max(fwd(q), o(0))
              if (f < fwdNext(to)) fwdNext(to) = f
              val lo = math.max(f, back(next + to))
              if (lo < Int.MaxValue) {
                // A surviving edge: its frequent non-ε items >= lo are pivots.
                var m = 0
                while (m < o.length && o(m) <= maxFid) {
                  if (o(m) >= lo && o(m) != 0) pivots += o(m)
                  m += 1
                }
                // Relevance for the rewrite; m > 1 means o(1) is frequent.
                val rel = if (to != q) 0 else if (o(0) != 0) o(0) else if (m > 1) o(1) else Int.MaxValue
                if (rel < minPivot(i)) minPivot(i) = rel
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

    // Sorted, then deduplicated in place by a plain loop: `distinct` boxes every raw entry.
    val ks = pivots.result()
    java.util.Arrays.sort(ks)
    var d, j = 0
    while (j < ks.length) { if (d == 0 || ks(j) != ks(d - 1)) { ks(d) = ks(j); d += 1 }; j += 1 }
    GridResult(if (d == ks.length) ks else java.util.Arrays.copyOf(ks, d), minPivot)
  }

  /** The rewritten representation `ρk(T)`: `t` with leading and trailing
    * positions irrelevant for pivot `k` dropped (Sec. V-B). `t` itself when
    * nothing is dropped or no position is relevant.
    */
  def rewrite(t: Array[Int], g: GridResult, k: Int): Array[Int] = {
    val n = t.length
    var first = 0
    while (first < n && g.minPivot(first) > k) first += 1
    var last = n - 1
    while (last > first && g.minPivot(last) > k) last -= 1
    if (first == n || (first == 0 && last == n - 1)) t else t.slice(first, last + 1)
  }
}
