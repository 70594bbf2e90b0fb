package repro.core

import repro.dict.Dictionary
import repro.fst.{Fst, FstSimulator, StepRow}
import repro.fst.FstSimulator.Lanes

import scala.collection.mutable

/** Pivot search and sequence rewriting for D-SEQ (Sec. V-A/V-B).
  *
  * Finds the pivot items `K(T)` of an input sequence on the position–state grid of the paper
  * (Th. 1, Fig. 5b), in time linear in `|T|` for a fixed FST and a bounded number of candidate
  * items, and then each pivot's window `ρk(T)`. Both rest on one counting rule (see
  * [[GridResult]]), the closed form of Th. 1's `⊕` that the tests' `PivotFold` checks against
  * the fold, applied by lane-parallel passes that give each candidate item one lane of 64-bit
  * masks: the backward pass ([[FstSimulator.lanes]]) yields `K(T)` and the lanes D-CAND's
  * pivot tries read ([[search]]), and a forward pass the windows ([[grid]]).
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

  /** `K(T)` for sequence `t` and every pivot's window (Sec. V-B). A pivot is an item `k` with a
    * run that counts for `k` (see [[GridResult]]), as in Th. 1. `maxFid` is the largest frequent
    * fid (σ boundary): only frequent items are candidates, and a run through a set whose floor is
    * infrequent counts for none of them, as it generates no candidate in `Gσπ(T)`.
    *
    * Trimming the head is exact: each counted run idles in the initial state up to `first`,
    * so the trimmed sequence's counted runs are the original's. Trimming the tail is exact
    * when every final state that a prefix counted for `k` so far (every set's floor `<= k`,
    * `k` output) reaches at `last + 1` gets to a final state at `n` through ε-only steps: then
    * each counted run of the trimmed sequence extends to one of `t` with the same output.
    * Where that fails, `last` is the end of `t`.
    */
  def grid(t: Array[Int], fst: Fst, dict: Dictionary, maxFid: Int): GridResult = {
    val ps, first, last = new mutable.ArrayBuilder.ofInt
    val from, to = new Array[Int](64) // the current chunk's windows, per lane
    var done: Lanes = null
    search(t, fst, dict, maxFid) { (rows, lanes, l, k) =>
      if (lanes ne done) { forward(rows, fst, lanes, lanes.toK(fst.initial), from, to); done = lanes }
      ps += k; first += from(l); last += to(l)
    }
    GridResult(ps.result(), first.result(), last.result())
  }

  /** Calls `f(rows, lanes, l, k)` for each pivot `k` of `t`, in order: `rows` are `t`'s step
    * rows, and `k` is lane `l` of `lanes`, the [[FstSimulator.lanes]] pass of its chunk. The
    * candidates, the frequent non-ε items of `t`'s output sets, go 64 to a chunk; a chunk's
    * pivots are the lanes of `toK` at `(0, initial)`.
    */
  private[core] def search(t: Array[Int], fst: Fst, dict: Dictionary, maxFid: Int)(
      f: (Array[StepRow], Lanes, Int, Int) => Unit): Unit = {
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

    var lo = 0
    while (lo < d) {
      val lanes = FstSimulator.lanes(rows, fst, ks, lo, math.min(lo + 64, d))
      var mask = lanes.toK(fst.initial)
      while (mask != 0) {
        val l = java.lang.Long.numberOfTrailingZeros(mask)
        f(rows, lanes, l, ks(lo + l))
        mask &= mask - 1
      }
      lo += 64
    }
  }

  /** The windows of the pivots in `mask`'s lanes of `lanes`, lane `l`'s at `first(l)` and
    * `last(l)`.
    *
    * The forward pass carries `reach` (a prefix with every set's floor `<= k`) and `seen` (one
    * that has also output `k`); a step is on a counted run for the lanes of `seen' &
    * live(target) | reach' & toK(target)`, primes marking the masks after the step. It follows
    * prefixes through cells without an accepting suffix too: a prefix of the trimmed sequence
    * may die in `t`, and the tail rule must see it.
    */
  private def forward(rows: Array[StepRow], fst: Fst, lanes: Lanes, mask: Long,
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
      while (b != 0) { first(java.lang.Long.numberOfTrailingZeros(b)) = i; b &= b - 1 }
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
        last(l) = if ((keepTail >>> l & 1) != 0) n - 1 else i
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
