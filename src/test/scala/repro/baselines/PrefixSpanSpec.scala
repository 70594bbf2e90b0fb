package repro.baselines

import repro.{SparkSpec, TestGen}
import repro.core.Drivers

/** MLlib PrefixSpan doubles as an independent oracle for the "MLlib setting"
  * (Sec. VII-D): `T1(σ,λ) = (.)[.*(.)]{,λ-1}` — max length, arbitrary gaps,
  * no hierarchy.
  */
class PrefixSpanSpec extends SparkSpec {

  private def t1(lambda: Int) = s"(.)[.*(.)]{,${lambda - 1}}"

  /** A flat dictionary (no hierarchy) so PrefixSpan and D-SEQ agree. */
  private def flatDb(seed: Long, n: Int) =
    TestGen.encodeLocal(TestGen.randomDb(seed, nSeqs = n), parents = Map.empty)

  for ((sigma, lambda) <- Seq((5L, 2), (4L, 3))) {
    test(s"MLlib PrefixSpan == D-SEQ on T1(σ=$sigma, λ=$lambda)") {
      val (d, db) = flatDb(91, 40)
      val rdd = spark.sparkContext.parallelize(db, 4)
      val mllib = PrefixSpanRunner.mine(rdd, sigma, lambda).collect().toMap
      val dseq = Drivers.dSeq(spark.sparkContext, rdd, d, t1(lambda), sigma).collect().toMap
      assert(mllib == dseq)
      assert(mllib.nonEmpty)
    }
  }

  test("MLlib PrefixSpan == D-CAND on T1(σ=6, λ=2)") {
    val (d, db) = flatDb(92, 40)
    val rdd = spark.sparkContext.parallelize(db, 4)
    val mllib = PrefixSpanRunner.mine(rdd, 6, 2).collect().toMap
    val dcand = Drivers.dCand(spark.sparkContext, rdd, d, t1(2), 6).collect().toMap
    assert(mllib == dcand)
  }

  test("maxPatternLength is honored") {
    val (_, db) = flatDb(93, 30)
    val rdd = spark.sparkContext.parallelize(db, 4)
    val res = PrefixSpanRunner.mine(rdd, 3, 2).collect()
    assert(res.forall(_._1.length <= 2))
  }

  test("σ above |D| and an empty input give no patterns, as in D-SEQ") {
    val (d, db) = flatDb(94, 10)
    for ((input, sigma) <- Seq((db, 11L), (IndexedSeq.empty[Array[Int]], 1L))) {
      val rdd = spark.sparkContext.parallelize(input, 4)
      val mllib = PrefixSpanRunner.mine(rdd, sigma, 2).collect().toMap
      val dseq = Drivers.dSeq(spark.sparkContext, rdd, d, t1(2), sigma).collect().toMap
      assert(mllib == dseq && mllib.isEmpty, s"n=${input.size} sigma=$sigma")
    }
  }
}
