package repro.core

import repro.dict.Dictionary
import repro.fst.{BlowUpException, Fst, FstCompiler, FstSimulator}

/** Brute-force reference miner: enumerates `Gσπ(T)` for every sequence by
  * explicit run enumeration and Cartesian products, then counts supports.
  * Exponential — use only on small inputs; it is the ground truth every other
  * miner is tested against.
  */
object BruteForce {

  /** Frequency map of all frequent subsequences (support >= sigma). */
  def mine(db: Seq[Array[Int]], patex: String, sigma: Long, dict: Dictionary): Map[Pattern, Long] =
    mine(db, FstCompiler.compile(patex, dict), sigma, dict)

  def mine(db: Seq[Array[Int]], fst: Fst, sigma: Long, dict: Dictionary): Map[Pattern, Long] = {
    val maxFid = dict.maxFrequentFid(sigma)
    val counts = collection.mutable.HashMap.empty[Pattern, Long]
    for (t <- db; cand <- FstSimulator.candidates(t, fst, dict, maxFid)) {
      val p = Pattern.fromList(cand)
      counts(p) = counts.getOrElse(p, 0L) + 1L
    }
    counts.filter(_._2 >= sigma).toMap
  }

  /** Per-sequence candidate counts — the CSPI statistic of Tab. IV.
    * Returns (|Gσπ(T)|) for each T; 0 for unmatched sequences.
    */
  def candidateCounts(db: Seq[Array[Int]], fst: Fst, sigma: Long, dict: Dictionary,
                      cap: Int = 1 << 20): Seq[Long] = {
    val maxFid = dict.maxFrequentFid(sigma)
    db.map { t =>
      try FstSimulator.candidates(t, fst, dict, maxFid, cap).size.toLong
      catch { case _: BlowUpException => cap.toLong } // capped, reported as >= cap
    }
  }
}
