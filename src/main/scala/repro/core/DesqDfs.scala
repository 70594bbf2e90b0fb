package repro.core

import repro.dict.Dictionary
import repro.fst.{Fst, FstSimulator}
import repro.fst.FstSimulator.{End, LeadsToLabel, Live}

import scala.collection.mutable

/** DESQ-DFS: pattern-growth mining under a DESQ subsequence constraint
  * (Sec. V-C; originally from the DESQ paper [5]).
  *
  * The search is [[PatternGrowth]]'s. Each node holds a projected database
  * of `(T, pos, state)` snapshots — FST simulations of `T` that have produced
  * exactly the node's prefix and stand at `pos`/`state`. A prefix is a
  * complete candidate for `T` if some snapshot can consume the rest of `T`
  * producing only ε.
  *
  * Snapshots are the product states of [[FstSimulator.pivotCells]], the
  * one-lane run of the backward lane kernel [[FstSimulator.lanes]], one pass
  * per sequence with `k` the item cap, a snapshot being `seen` unless pivot
  * pruning is on for its node. The search keeps only live snapshots, follows
  * an ε-step only into a state that leads to a labelled step, and counts a
  * snapshot's sequence as support at an `End` cell. A snapshot that is not
  * live can never complete a prefix, so this changes no support.
  *
  * With `pivot = Some(k)` the miner runs D-SEQ's restricted local mining:
  * prefixes use only items `<= k` and only sequences containing `k` are
  * emitted. It always prunes by pivot (Sec. V-C's early stopping): while
  * the prefix lacks `k`, it keeps only snapshots from which some accepting
  * run can still output `k` (the live unseen ones); such a run is the only
  * way a snapshot can add to a pivot-`k` pattern, so the pruning is exact.
  *
  * The unrestricted variant (`pivot = None`) is the sequential DESQ-DFS
  * baseline of Tab. V.
  */
object DesqDfs {

  /** Limits of a projected-database entry's `local`, which packs
    * `(pos, state)` into a non-negative `Int` with 21 bits for the position
    * and 10 for the state.
    */
  val MaxFstStates = 1024
  val MaxSequenceLength = (1 << 21) - 1

  /** Mine `db` (sequences with multiplicities) for frequent subsequences.
    *
    * @param maxFid largest frequent fid (σ boundary on items)
    * @param pivot  if set, mine only pivot sequences for this item, with pivot pruning
    */
  def mine(
      db: IndexedSeq[(Array[Int], Long)],
      fst: Fst,
      dict: Dictionary,
      sigma: Long,
      maxFid: Int,
      pivot: Option[Int] = None
  ): Map[Pattern, Long] = {
    if (db.isEmpty) return Map.empty
    require(fst.numStates <= MaxFstStates,
      s"DESQ-DFS supports FSTs of at most $MaxFstStates states; this FST has ${fst.numStates}")
    val maxLen = db.iterator.map(_._1.length).max
    require(maxLen <= MaxSequenceLength,
      s"DESQ-DFS supports sequences of at most $MaxSequenceLength items; got one of $maxLen")
    FstSimulator.requireCells(maxLen, fst.numStates)
    val itemCap = pivot.fold(maxFid)(math.min(_, maxFid))
    if (pivot.exists(_ > itemCap)) return Map.empty // an infrequent pivot is in no frequent pattern
    new Search(db.map(_._1).toArray, db.map(_._2).toArray, fst, dict, sigma, itemCap,
      pivot.getOrElse(0), maxLen).run()
  }

  /** One mining run: the per-sequence [[FstSimulator.pivotCells]] tables and
    * the scratch state of the ε-DFS. An entry's `local` is `pos << 10 | state`.
    *
    * @param k the pivot, or 0 (ε, never an output item) when unrestricted; pivot pruning is on
    *          iff `k != 0`
    */
  private final class Search(
      seqs: Array[Array[Int]], weights: Array[Long], fst: Fst, dict: Dictionary,
      sigma: Long, itemCap: Int, k: Int, maxLen: Int
  ) extends PatternGrowth(weights, sigma, k) {
    private val s = fst.numStates
    private val seqCells = seqs.map(FstSimulator.pivotCells(_, fst, dict, itemCap))

    // ε-DFS visited set: (pos, state) was visited for the current snapshot
    // group iff its stamp equals `epoch`.
    private val stamp = new Array[Int]((maxLen + 1) * s)
    private var epoch = 0

    // Scratch state of the node being extended and of its current sequence.
    private var seen = 1 // the snapshots' seen bit: 0 while pivot pruning is on
    private var toLabel = LeadsToLabel // the leads-to-label bit for `seen`
    private var tid = 0
    private var seq: Array[Int] = _
    private var seqCell: Array[Byte] = _

    def run(): Map[Pattern, Long] = {
      val root = new mutable.ArrayBuilder.ofLong
      val rootLive = Live << (if (k != 0) 0 else 1)
      for (t <- seqs.indices if (seqCells(t)(fst.initial) & rootLive) != 0)
        root += (t.toLong << 32 | fst.initial)
      run(root.result())
    }

    protected def extend(db: Array[Long], hasPivot: Boolean): Unit = {
      seen = if (k != 0 && !hasPivot) 0 else 1
      toLabel = if (seen == 0) Live else LeadsToLabel // unseen, the two bits are equal
      var ei = 0
      while (ei < db.length) {
        val e = db(ei)
        if (ei == 0 || (e >>> 32).toInt != tid) {
          tid = (e >>> 32).toInt
          seq = seqs(tid)
          seqCell = seqCells(tid)
          if (epoch == Int.MaxValue) { java.util.Arrays.fill(stamp, 0); epoch = 0 }
          epoch += 1
        }
        dfs(e.toInt >>> 10, e.toInt & 0x3FF)
        ei += 1
      }
    }

    protected def accepts(e: Long): Boolean =
      (seqCells((e >>> 32).toInt)((e.toInt >>> 10) * s + (e.toInt & 0x3FF)) & End) != 0

    /** Follow ε-moves from snapshot `(i, q)` of the current sequence into
      * states that lead to a labelled step, and add every item step into a
      * live snapshot (while pruning, an unseen one unless the item is `k`)
      * to the child of that item.
      */
    private def dfs(i: Int, q: Int): Unit = {
      val key = i * s + q
      if (stamp(key) == epoch) return
      stamp(key) = epoch
      if (i == seq.length) return
      val row = fst.steps(seq(i), dict)
      val next = (i + 1) * s
      var j = row.start(q)
      while (j < row.start(q + 1)) {
        val to = row.to(j)
        val c = seqCell(next + to)
        if (row.epsOnly(j)) { if ((c & toLabel) != 0) dfs(i + 1, to) }
        else if ((c & Live << 1) != 0) {
          val keep = (c & Live << seen) != 0
          val outs = row.out(j)
          var oi = 0
          while (oi < outs.length && outs(oi) <= itemCap) {
            val w = outs(oi)
            if (keep || w == k) add(w, tid.toLong << 32 | (i + 1) << 10 | to)
            oi += 1
          }
        }
        j += 1
      }
    }
  }
}
