package repro.core

import repro.dict.Dictionary
import repro.fst.{Fst, FstSimulator, StepRow}

import scala.collection.mutable

/** Pivot search and sequence rewriting for D-SEQ (Sec. V-A/V-B).
  *
  * Finds the pivot items `K(T)` of an input sequence on the position–state grid of the paper
  * (Th. 1, Fig. 5b), in time linear in `|T|` for a fixed FST and a bounded number of candidate
  * items, and then each pivot's window `ρk(T)`. Both rest on one counting rule (see
  * [[GridResult]]), the closed form of Th. 1's `⊕` that the tests' `PivotFold` checks against
  * the fold, applied by lane-parallel passes that give each candidate item one lane of 64-bit
  * masks: a backward pass yields `K(T)` ([[pivots]]) and a forward pass the windows ([[grid]]).
  *
  * Items are fids; fid 0 is ε and is strictly smaller than every item, so an
  * ε-only output set needs no special casing: its floor is 0.
  */
object PivotSearch {

  /** Result of the grid passes for one input sequence. Positions are 0-based.
    *
    * A run counts for pivot `k` iff every output set's floor (smallest item, ε = 0) is `<= k`
    * and some set holds `k`. Pivot `k`'s window runs from the first to the last position with a
    * step on a counted run that is not an ε self-loop (ε-only output, same source and target
    * state); before and after it, every counted run idles in one state.
    *
    * @param pivots sorted `K(T)` (σ-filtered, ε removed)
    * @param first  per pivot, at the pivot's index: the first position of its window
    * @param last   per pivot: the last position of its window, or the last position of `t` when
    *               trimming the tail could add runs (see [[grid]])
    */
  final case class GridResult(pivots: Array[Int], first: Array[Int], last: Array[Int])

  /** `K(T)` for sequence `t`: the items `k` with a run that counts for `k` (see [[GridResult]]),
    * Th. 1's pivots. `maxFid` is the largest frequent fid (σ boundary): only frequent items are
    * candidates, and a run through a set whose floor is infrequent counts for none of them, as
    * it generates no candidate in `Gσπ(T)`. Sorted, without duplicates.
    */
  def pivots(t: Array[Int], fst: Fst, dict: Dictionary, maxFid: Int): Array[Int] =
    search(t, fst, dict, maxFid, windows = false).pivots

  /** [[pivots]] and every pivot's window (Sec. V-B).
    *
    * Trimming the head is exact: each counted run idles in the initial state up to `first`,
    * so the trimmed sequence's counted runs are the original's. Trimming the tail is exact
    * when every final state that a prefix counted for `k` so far (every set's floor `<= k`,
    * `k` output) reaches at `last + 1` gets to a final state at `n` through ε-only steps: then
    * each counted run of the trimmed sequence extends to one of `t` with the same output.
    * Where that fails, `last` is the end of `t`.
    */
  def grid(t: Array[Int], fst: Fst, dict: Dictionary, maxFid: Int): GridResult =
    search(t, fst, dict, maxFid, windows = true)

  /** [[grid]], whose `first` and `last` stay 0 unless `windows`. The candidates, the frequent
    * non-ε items of `t`'s output sets, go 64 to a chunk; per chunk, the [[backward]] pass gives
    * the chunk's pivots and, if `windows`, the [[forward]] pass their windows.
    */
  private def search(t: Array[Int], fst: Fst, dict: Dictionary, maxFid: Int, windows: Boolean): GridResult = {
    FstSimulator.requireCells(t.length, fst.numStates)
    val rows = new Array[StepRow](t.length)
    val cands = new mutable.ArrayBuilder.ofInt
    for (i <- t.indices) {
      rows(i) = fst.steps(t(i), dict)
      for (o <- rows(i).sets) {
        var m = 0
        while (m < o.length && o(m) <= maxFid) { if (o(m) != 0) cands += o(m); m += 1 }
      }
    }
    // Sorted, then deduplicated in place by a plain loop: `distinct` boxes every raw entry.
    val ks = cands.result()
    java.util.Arrays.sort(ks)
    var d, j = 0
    while (j < ks.length) { if (d == 0 || ks(j) != ks(d - 1)) { ks(d) = ks(j); d += 1 }; j += 1 }

    val first = new Array[Int](d)
    val last = new Array[Int](d)
    var p, lo = 0
    while (lo < d) {
      val lanes = backward(rows, fst, ks, lo, math.min(lo + 64, d))
      var mask = lanes.toK(fst.initial)
      if (windows && mask != 0) forward(rows, fst, lanes, mask, lo, first, last)
      // Keep the chunk's pivots, moved down over the candidates before them that are none.
      while (mask != 0) {
        val c = lo + java.lang.Long.numberOfTrailingZeros(mask)
        ks(p) = ks(c); first(p) = first(c); last(p) = last(c); p += 1
        mask &= mask - 1
      }
      lo += 64
    }
    def keep(a: Array[Int]) = if (a.length == p) a else java.util.Arrays.copyOf(a, p)
    GridResult(keep(ks), keep(first), keep(last))
  }

  /** The [[backward]] pass's masks for one chunk of candidates. */
  private final class Lanes(val below: Array[Long], val holds: Array[Long], val live: Array[Long],
                            val toK: Array[Long], val end: Array[Boolean])

  /** The backward pass over candidates `ks(lo until hi)`, candidate `ks(lo + l)` in lane `l` of
    * each mask.
    *
    * An output set's masks, built once per (position, output function) for both passes:
    * `below`, the lanes whose candidate is `>=` the set's floor, and `holds`, the lanes whose
    * candidate the set holds. Per cell `i * S + q`: `live` (an accepting suffix with every set
    * floor `<= k`), `toK` (one that also outputs `k`) and `end` (ε-only steps lead to a final
    * state at `n`). So `k` is a pivot iff its lane of `toK` is set at `(0, initial)`.
    */
  private def backward(rows: Array[StepRow], fst: Fst, ks: Array[Int], lo: Int, hi: Int): Lanes = {
    val n = rows.length
    val s = fst.numStates
    val all = if (hi - lo == 64) -1L else (1L << (hi - lo)) - 1
    val fns = rows(0).sets.length
    val below = new Array[Long](n * fns)
    val holds = new Array[Long](n * fns)
    val live = new Array[Long]((n + 1) * s)
    val toK = new Array[Long]((n + 1) * s)
    val end = new Array[Boolean]((n + 1) * s)
    var q = 0
    while (q < s) {
      if (fst.isFinal(q)) { live(n * s + q) = all; end(n * s + q) = true }
      q += 1
    }
    var i = n - 1
    while (i >= 0) {
      val row = rows(i)
      val fn = i * fns
      var f = 0
      while (f < fns) {
        val o = row.sets(f)
        // Empty if no step on this item outputs it; then both masks stay 0. Otherwise lanes
        // from `p` on hold the candidates >= o(0), and the set's candidates are among them.
        if (o.length > 0) {
          val at = if (o(0) <= ks(lo)) lo else java.util.Arrays.binarySearch(ks, lo, hi, o(0))
          var p = if (at >= 0) at else -at - 1
          below(fn + f) = if (p == hi) 0L else all & -1L << (p - lo)
          var h = 0L
          var m = 0
          while (m < o.length && p < hi) {
            while (p < hi && ks(p) < o(m)) p += 1
            if (p < hi && ks(p) == o(m)) h |= 1L << (p - lo)
            m += 1
          }
          holds(fn + f) = h
        }
        f += 1
      }
      val next = (i + 1) * s
      q = 0
      while (q < s) {
        var l, k = 0L
        var e = false
        var j = row.start(q)
        while (j < row.start(q + 1)) {
          val to = next + row.to(j)
          if (row.epsOnly(j)) { l |= live(to); k |= toK(to); e |= end(to) }
          else {
            val b = below(fn + row.outFn(j))
            l |= b & live(to)
            k |= b & (toK(to) | holds(fn + row.outFn(j)) & live(to))
          }
          j += 1
        }
        live(i * s + q) = l
        toK(i * s + q) = k
        end(i * s + q) = e
        q += 1
      }
      i -= 1
    }
    new Lanes(below, holds, live, toK, end)
  }

  /** The windows of the pivots in `mask`'s lanes of `lanes`, lane `l`'s at `first(lo + l)` and
    * `last(lo + l)`.
    *
    * The forward pass carries `reach` (a prefix with every set's floor `<= k`) and `seen` (one
    * that has also output `k`); a step is on a counted run for the lanes of `seen' &
    * live(target) | reach' & toK(target)`, primes marking the masks after the step. It follows
    * prefixes through cells without an accepting suffix too: a prefix of the trimmed sequence
    * may die in `t`, and the tail rule must see it.
    */
  private def forward(rows: Array[StepRow], fst: Fst, lanes: Lanes, mask: Long, lo: Int,
                      first: Array[Int], last: Array[Int]): Unit = {
    import lanes._
    val n = rows.length
    val s = fst.numStates
    val fns = rows(0).sets.length
    // hit(i): the lanes with a counted step at i that is not an ε self-loop. bad(i): the lanes
    // with a prefix counted so far in a final state at i that has no ε-only way to the end.
    val hit = new Array[Long](n)
    val bad = new Array[Long](n)
    var reach, seen, reachNext, seenNext = new Array[Long](s) // one array each
    reach(fst.initial) = mask
    var i = 0
    while (i < n) {
      val row = rows(i)
      val fn = i * fns
      val next = (i + 1) * s
      java.util.Arrays.fill(reachNext, 0L)
      java.util.Arrays.fill(seenNext, 0L)
      var hits, bads = 0L
      var q = 0
      while (q < s) {
        val r = reach(q)
        if (r != 0) {
          val sn = seen(q)
          if (fst.isFinal(q) && !end(i * s + q)) bads |= sn
          var j = row.start(q)
          while (j < row.start(q + 1)) {
            val to = row.to(j)
            if (row.epsOnly(j)) {
              reachNext(to) |= r
              seenNext(to) |= sn
              if (to != q) hits |= sn & live(next + to) | r & toK(next + to)
            } else {
              val b = below(fn + row.outFn(j))
              val r1 = r & b
              val s1 = b & (sn | r & holds(fn + row.outFn(j)))
              reachNext(to) |= r1
              seenNext(to) |= s1
              hits |= s1 & live(next + to) | r1 & toK(next + to)
            }
            j += 1
          }
        }
        q += 1
      }
      hit(i) = hits
      bad(i) = bads
      var tmp = reach; reach = reachNext; reachNext = tmp
      tmp = seen; seen = seenNext; seenNext = tmp
      i += 1
    }

    // Every pivot has a counted labelled step, so each lane is hit at least once.
    var todo = mask
    i = 0
    while (todo != 0) {
      var b = hit(i) & todo
      todo &= ~b
      while (b != 0) { first(lo + java.lang.Long.numberOfTrailingZeros(b)) = i; b &= b - 1 }
      i += 1
    }
    todo = mask
    i = n - 1
    while (todo != 0) {
      var b = hit(i) & todo
      todo &= ~b
      val keepTail = if (i + 1 < n) bad(i + 1) else 0L
      while (b != 0) {
        val l = java.lang.Long.numberOfTrailingZeros(b)
        last(lo + l) = if ((keepTail >>> l & 1) != 0) n - 1 else i
        b &= b - 1
      }
      i -= 1
    }
  }

  /** The rewritten representation `ρk(T)` of pivot `k` of `g`: `t` cut to `k`'s window
    * (Sec. V-B), or `t` itself when the window is all of `t`.
    */
  def rewrite(t: Array[Int], g: GridResult, k: Int): Array[Int] = {
    val p = java.util.Arrays.binarySearch(g.pivots, k)
    require(p >= 0, s"$k is not a pivot of the sequence")
    val (from, until) = (g.first(p), g.last(p) + 1)
    if (from == 0 && until == t.length) t else java.util.Arrays.copyOfRange(t, from, until)
  }
}
