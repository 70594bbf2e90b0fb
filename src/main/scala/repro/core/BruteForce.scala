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

  /** `|Gσπ(T)|`, the per-sequence candidate count behind the CSPI statistic
    * of Tab. IV: 0 for an unmatched sequence, `cap` when enumeration hits the
    * cap (reported as >= cap).
    */
  def candidateCount(t: Array[Int], fst: Fst, dict: Dictionary, maxFid: Int, cap: Int): Long =
    try FstSimulator.candidates(t, fst, dict, maxFid, cap).size.toLong
    catch { case _: BlowUpException => cap.toLong }
}
