package repro.baselines

import repro.{SparkSpec, TestGen}
import repro.core.{BruteForce, Drivers}
import repro.data.SeqData

/** LASH-lite (specialized max-gap/max-length/hierarchy miner) must agree
  * exactly with D-SEQ under the equivalent T3 pattern expression
  * `(.^)[.{0,γ}(.^)]{1,λ-1}` — the paper's Sec. VII-D "LASH setting".
  */
class LashLiteSpec extends SparkSpec {

  private def t3(gamma: Int, lambda: Int) = s"(.^)[.{0,$gamma}(.^)]{1,${lambda - 1}}"

  private def check(db: IndexedSeq[Array[Int]], dict: repro.dict.Dictionary,
                    sigma: Long, gamma: Int, lambda: Int): Unit = {
    val rdd = spark.sparkContext.parallelize(db, 4)
    val lash = LashLite.mine(spark.sparkContext, rdd, dict, sigma, gamma, lambda).collect().toMap
    val dseq = Drivers.dSeq(spark.sparkContext, rdd, dict, t3(gamma, lambda), sigma)
      .collect().toMap
      .filter(_._1.length >= 2) // T3 patterns have >= 2 items by construction
    assert(lash == dseq, s"sigma=$sigma gamma=$gamma lambda=$lambda")
  }

  for (seed <- Seq(81, 82); (gamma, lambda) <- Seq((0, 3), (1, 3), (2, 4))) {
    test(s"LASH-lite == D-SEQ on toy db [seed=$seed γ=$gamma λ=$lambda]") {
      val (d, db) = TestGen.encodeLocal(TestGen.randomDb(seed, nSeqs = 40), TestGen.toyParents)
      check(db, d, sigma = 3, gamma, lambda)
    }
  }

  test("LASH-lite == D-SEQ == brute force on amznLiteF sample") {
    val sdb = SeqData.encode(SeqData.amznLiteF(spark, sf = 0.004))
    val db = sdb.sequences.collect().toIndexedSeq
    val sigma = 3L; val gamma = 1; val lambda = 3
    check(db, sdb.dict, sigma, gamma, lambda)
    val brute = BruteForce.mine(db, t3(gamma, lambda), sigma, sdb.dict)
      .filter(_._1.length >= 2)
    val rdd = spark.sparkContext.parallelize(db, 4)
    val lash = LashLite.mine(spark.sparkContext, rdd, sdb.dict, sigma, gamma, lambda)
      .collect().toMap
    assert(lash == brute)
  }

  test("gamma=0 mines only consecutive generalized n-grams") {
    val (d, db) = TestGen.encodeLocal(
      Seq(Array("l0", "l1", "l2"), Array("l0", "l1", "l9"), Array("l0", "l4", "l1")),
      TestGen.toyParents)
    val rdd = spark.sparkContext.parallelize(db, 2)
    val res = LashLite.mine(spark.sparkContext, rdd, d, 2, gamma = 0, lambda = 2)
      .collect().toMap
    val names = res.map { case (p, f) => p.items.map(d.name).mkString(" ") -> f }
    assert(names("l0 l1") == 2)      // consecutive in sequences 1 and 2
    assert(!names.contains("l0 l2")) // gap of 1 — excluded at γ=0
    assert(names("m0 m0") == 2)      // generalized adjacent pair in seqs 1, 2
    assert(names("top top") == 3)    // fully generalized pair occurs everywhere
  }

  test("more than γ blanks split a sequence: no pattern spans the split") {
    // x, y, u and v occur once, so at σ = 2 they have no frequent ancestor and
    // are blanks; two of them exceed γ = 1 and split each sequence after c.
    val (d, db) = TestGen.encodeLocal(
      Seq("a b c x y a c", "a b c u v a c").map(_.split(' ')), Map.empty)
    val rdd = spark.sparkContext.parallelize(db, 2)
    val res = LashLite.mine(spark.sparkContext, rdd, d, 2, gamma = 1, lambda = 3)
      .collect().toMap
    val names = res.map { case (p, f) => p.items.map(d.name).mkString(" ") -> f }
    // "c a", "b a", "a a" and "c c" would span the split; "a c" also occurs
    // after it.
    assert(names == Map("a b" -> 2L, "a c" -> 2L, "b c" -> 2L, "a b c" -> 2L))
  }

  test("an entry (λ − |prefix|)·(γ + 1) positions before the pivot still reaches it") {
    // At σ = 2 the fillers x and y are blanks. In pivot k's partition, "a b k"
    // needs a at position 0 with k at 4 = (3 − 1)·(1 + 1), and b at 2 with k
    // at 4 = (3 − 2)·(1 + 1): both sit exactly at the reach bound.
    val (d, db) = TestGen.encodeLocal(
      Seq("a x1 b y1 k", "a x2 b y2 k", "a b").map(_.split(' ')), Map.empty)
    val rdd = spark.sparkContext.parallelize(db, 2)
    val res = LashLite.mine(spark.sparkContext, rdd, d, 2, gamma = 1, lambda = 3)
      .collect().toMap
    val names = res.map { case (p, f) => p.items.map(d.name).mkString(" ") -> f }
    assert(names == Map("a b" -> 3L, "b k" -> 2L, "a b k" -> 2L))
  }
}
