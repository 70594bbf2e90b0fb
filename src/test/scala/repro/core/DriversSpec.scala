package repro.core

import org.apache.spark.ShuffleDependency
import org.apache.spark.rdd.RDD
import org.apache.spark.serializer.KryoSerializer
import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed
import repro.{SparkSpec, TestGen}
import repro.baselines.LashLite
import repro.Ex._
import repro.fst.{BlowUpException, FstCompiler, FstSimulator}
import repro.patex.PatExPrinter
import repro.util.Metrics

/** The Spark drivers (Alg. 1 dataflows) against brute force and each other.
  * Each algorithm runs exactly one shuffle round; results must agree exactly.
  */
class DriversSpec extends SparkSpec {

  private def run(algo: String, db: IndexedSeq[Array[Int]], dict: repro.dict.Dictionary,
                  patex: String, sigma: Long): Map[Pattern, Long] = algo match {
    case "dseq"      => dSeq(db, dict, patex, sigma)
    case "dcand"     => dCand(db, dict, patex, sigma)
    case "naive"     => Drivers.naive(sc, sc.parallelize(db, 4), dict, patex, sigma).collect().toMap
    case "seminaive" => Drivers.semiNaive(sc, sc.parallelize(db, 4), dict, patex, sigma).collect().toMap
  }

  private val expectedEx = Map(
    Pattern(a1, a1, b) -> 2L,
    Pattern(a1, A, b) -> 2L,
    Pattern(a1, b) -> 3L)

  for (algo <- Seq("dseq", "dcand", "naive", "seminaive")) {
    test(s"$algo reproduces the running example (σ=2)") {
      assert(run(algo, db, dict, piEx, 2) == expectedEx)
    }

    test(s"$algo matches brute force on the running example at σ=1 and σ=3") {
      for (sigma <- Seq(1L, 3L)) {
        val want = BruteForce.mine(db, piEx, sigma, dict)
        assert(run(algo, db, dict, piEx, sigma) == want, s"sigma=$sigma")
      }
    }
  }

  for ((name, patex) <- TestGen.patterns; algo <- Seq("dseq", "dcand")) {
    test(s"$algo == brute force on random toy db [$name]") {
      val (d, dbr) = TestGen.encodeLocal(TestGen.randomDb(61), TestGen.toyParents)
      val sigma = 2L
      val want = BruteForce.mine(dbr, patex, sigma, d)
      assert(run(algo, dbr, d, patex, sigma) == want)
    }
  }

  test("all four algorithms agree on a larger random db (t3-style)") {
    val (d, dbr) = TestGen.encodeLocal(TestGen.randomDb(62, nSeqs = 80), TestGen.toyParents)
    val patex = "(.^)[.{0,2}(.^)]{1,2}"
    val results = Seq("dseq", "dcand", "naive", "seminaive").map(a => run(a, dbr, d, patex, 5))
    assert(results.distinct.size == 1)
    assert(results.head.nonEmpty)
  }

  test("at σ = 0 every miner equals brute force: no pattern with support 0") {
    val (d, dbr) = TestGen.encodeLocal(TestGen.randomDb(61), TestGen.toyParents)
    val patex = "(.)(.)"
    val want = BruteForce.mine(dbr, patex, 0, d)
    assert(want.nonEmpty && want.values.forall(_ >= 1))
    val fst = FstCompiler.compile(patex, d)
    assert(DesqDfs.mine(dbr.map((_, 1L)), fst, d, 0, d.maxFrequentFid(0)) == want, "desq-dfs")
    for (algo <- Seq("dseq", "dcand", "naive", "seminaive"))
      assert(run(algo, dbr, d, patex, 0) == want, algo)
    val lash = LashLite.mine(sc, sc.parallelize(dbr, 4), d, 0, gamma = 1, lambda = 3).collect().toMap
    assert(lash == BruteForce.mine(dbr, "(.^)[.{0,1}(.^)]{1,2}", 0, d).filter(_._1.length >= 2), "lash-lite")
  }

  test("an empty sequence: one run iff the initial state is final, no pivots, no change to any miner") {
    val (d, dbr) = TestGen.encodeLocal(TestGen.randomDb(65, nSeqs = 12), TestGen.toyParents)
    val empty = Array.empty[Int]
    val sigma = 2L
    val maxFid = d.maxFrequentFid(sigma)
    var finalInitial = 0
    for ((name, patex) <- TestGen.patterns ++ Seq("star" -> "(.)*", "optional" -> "[(.^)(.)]?")) withClue(name) {
      val fst = FstCompiler.compile(patex, d)
      var runs = 0
      FstSimulator.foreachAcceptingRun(empty, fst, d) { r => assert(r.isEmpty); runs += 1 }
      assert(runs == (if (fst.isFinal(fst.initial)) 1 else 0))
      if (fst.isFinal(fst.initial)) finalInitial += 1
      assert(PivotSearch.grid(empty, fst, d, maxFid).pivots.isEmpty)
      val want = DesqDfs.mine(dbr.map((_, 1L)), fst, d, sigma, maxFid)
      val withEmpty = dbr.patch(dbr.length / 2, Seq(empty), 0)
      assert(DesqDfs.mine(withEmpty.map((_, 1L)), fst, d, sigma, maxFid) == want)
      assert(dSeq(withEmpty, d, patex, sigma) == want)
      assert(dCand(withEmpty, d, patex, sigma) == want)
    }
    assert(finalInitial >= 2, "too few FSTs that accept the empty sequence to be a test")
  }

  test("D-CAND == brute force when identical NFAs meet within and across map tasks") {
    // Twelve copies of eight sequences, three in each of the 4 input
    // partitions: identical NFAs meet inside one input partition (map-side
    // combine) and across partitions (reduce side).
    val patex = "(.)[.{0,1}(.)]{1,2}"
    val (d, copies) = TestGen.encodeLocal(
      Seq.fill(12)(TestGen.randomDb(66, nSeqs = 8)).flatten, TestGen.toyParents)
    val sigma = 24L
    val want = BruteForce.mine(copies, patex, sigma, d)
    assert(want.keySet.map(_.pivot).size >= 2)
    assert(dCand(copies, d, patex, sigma) == want)
  }

  private def shuffleDeps(rdd: RDD[_]): Seq[ShuffleDependency[_, _, _]] = rdd.dependencies.flatMap {
    case s: ShuffleDependency[_, _, _] => s +: shuffleDeps(s.rdd)
    case n                             => shuffleDeps(n.rdd)
  }

  test("every driver runs exactly one shuffle round") {
    val in = sc.parallelize(db, 4)
    val drivers = Seq(
      "dseq" -> Drivers.dSeq(sc, in, dict, piEx, 2),
      "dcand" -> Drivers.dCand(sc, in, dict, piEx, 2),
      "lash-lite" -> LashLite.mine(sc, in, dict, 2, gamma = 1, lambda = 3),
      "naive" -> Drivers.naive(sc, in, dict, piEx, 2),
      "seminaive" -> Drivers.semiNaive(sc, in, dict, piEx, 2))
    for ((name, rdd) <- drivers) assert(shuffleDeps(rdd).size == 1, name)
  }

  test("D-SEQ and LASH-lite shuffle their pivot records with Kryo") {
    // Spark no longer picks the serializer from the records' ClassTags:
    // `minePivots` sets Kryo on its one plain shuffle, which places pivot k in
    // partition k mod defaultParallelism.
    val in = sc.parallelize(db, 4)
    val p = sc.defaultParallelism
    for ((name, rdd) <- Seq("dseq" -> Drivers.dSeq(sc, in, dict, piEx, 2),
                            "lash-lite" -> LashLite.mine(sc, in, dict, 2, gamma = 1, lambda = 3))) {
      assert(shuffleDeps(rdd).map(_.serializer).collect { case k: KryoSerializer => k }.size == 1, name)
      val Seq(dep) = shuffleDeps(rdd)
      assert(dep.aggregator.isEmpty && !dep.mapSideCombine, name)
      assert(dep.partitioner.numPartitions == p, name)
      for (k <- 1 to 3 * p + 1) assert(dep.partitioner.getPartition(k) == k % p, s"$name: pivot $k")
    }
  }

  test("D-SEQ's shuffle carries each ρk(T) as varint bytes, one record per (sequence, pivot)") {
    val Seq(dep) = shuffleDeps(Drivers.dSeq(sc, sc.parallelize(db, 4), dict, piEx, 2))
    val shipped = dep.rdd.collect().map(r => (r._1.asInstanceOf[Int], r._2.asInstanceOf[AnyRef]))
    assert(shipped.nonEmpty && shipped.forall(_._2.isInstanceOf[Array[Byte]]))
    val fst = FstCompiler.compile(piEx, dict)
    val rewrites = db.flatMap { t =>
      val g = PivotSearch.grid(t, fst, dict, dict.maxFrequentFid(2))
      g.pivots.map(k => s"$k: ${PivotSearch.rewrite(t, g, k).mkString(" ")}")
    }
    val decoded = shipped.map { case (k, v) => s"$k: ${Varint.decode(v.asInstanceOf[Array[Byte]]).mkString(" ")}" }
    assert(decoded.sorted.toSeq == rewrites.sorted)
  }

  test("dSeqRecords: ρk(T) per grid pivot, in order; whole-sequence windows share one encoding") {
    var shared = 0
    for ((name, patex) <- TestGen.patterns; seed <- Seq(67, 68)) withClue(s"$name, seed=$seed: ") {
      val (d, dbr) = TestGen.encodeLocal(TestGen.randomDb(seed), TestGen.toyParents)
      val fst = FstCompiler.compile(patex, d)
      for (t <- dbr; sigma <- Seq(1L, 3L)) {
        val maxFid = d.maxFrequentFid(sigma)
        val g = PivotSearch.grid(t, fst, d, maxFid)
        val records = Drivers.dSeqRecords(t, fst, d, maxFid).toIndexedSeq
        assert(records.map(_._1) == g.pivots.toSeq, s"sigma=$sigma")
        for ((k, bytes) <- records)
          assert(bytes.sameElements(Varint.encode(PivotSearch.rewrite(t, g, k))), s"sigma=$sigma k=$k")
        val whole = records.indices.filter(p => g.first(p) == 0 && g.last(p) == t.length - 1).map(records(_)._2)
        assert(whole.forall(_ eq whole.head), s"sigma=$sigma")
        if (whole.size >= 2) shared += 1
      }
    }
    assert(shared > 0, "no sequence has two whole-sequence windows")
  }

  test("D-CAND shuffles its aggregated NFA records with Kryo") {
    val rdd = Drivers.dCand(sc, sc.parallelize(db, 4), dict, piEx, 2)
    assert(shuffleDeps(rdd).map(_.serializer).collect { case k: KryoSerializer => k }.size == 1)
  }

  test("D-CAND's shuffle writes no class name with its NFA records") {
    val Seq(dep) = shuffleDeps(Drivers.dCand(sc, sc.parallelize(db, 4), dict, piEx, 2))
    val bytes = new java.io.ByteArrayOutputStream
    val out = dep.serializer.newInstance().serializeStream(bytes)
    out.writeKey[(Int, NfaSerializer.Bytes)]((7, new NfaSerializer.Bytes(Array.fill[Byte](40)(1))))
    out.writeValue[Long](1L)
    out.close()
    assert(!new String(bytes.toByteArray, "ISO-8859-1").contains("repro.core.NfaSerializer"))
  }

  test("D-CAND's NFA records ship no cached hash, and a round trip keeps equality and hash") {
    val Seq(dep) = shuffleDeps(Drivers.dCand(sc, sc.parallelize(db, 4), dict, piEx, 2))
    def recordSize[V: scala.reflect.ClassTag](v: V): Int = {
      val bytes = new java.io.ByteArrayOutputStream
      val out = dep.serializer.newInstance().serializeStream(bytes)
      for (_ <- 1 to 1000) { out.writeKey[Int](7); out.writeValue[(V, Long)]((v, 1L)) }
      out.close()
      bytes.size / 1000
    }
    val raw = Array.fill[Byte](40)(1)
    val b = new NfaSerializer.Bytes(raw.clone)
    assert(b.hashCode == java.util.Arrays.hashCode(raw))
    assert(recordSize(b) <= recordSize(raw) + 1)
    val ser = dep.serializer.newInstance()
    val back = ser.deserialize[NfaSerializer.Bytes](ser.serialize(b))
    assert(back == b && back.hashCode == b.hashCode)
  }

  test("D-CAND aggregates without Spark's combiner: a plain shuffle, no map-side combine") {
    val rdd = Drivers.dCand(sc, sc.parallelize(db, 4), dict, piEx, 2)
    val Seq(dep) = shuffleDeps(rdd)
    assert(dep.aggregator.isEmpty)
    assert(!dep.mapSideCombine)
    assert(dep.serializer.isInstanceOf[KryoSerializer])
  }

  test("D-CAND's reduce side merges equal NFAs from different map tasks before mining") {
    // Five copies of one sequence, as two map tasks would ship them: one NFA per pivot with
    // weights 2 and 3. Only their sum reaches σ = 5.
    val patex = "(.^)[.{0,2}(.^)]{1,2}"
    val (d, copies) = TestGen.encodeLocal(Seq.fill(5)(Array("l0", "l4", "l1", "l8")), TestGen.toyParents)
    val sigma = 5L
    val records = Drivers.dCandRecords(copies.head, FstCompiler.compile(patex, d), d, d.maxFrequentFid(sigma),
                                       maxNodes = 1 << 20).toSeq
    val got = records.flatMap { case (k, b) => Drivers.dCandMine(k, IndexedSeq((b, 2L), (b, 3L)), sigma) }
    val want = BruteForce.mine(copies, patex, sigma, d)
    assert(records.size >= 2 && want.nonEmpty)
    assert(got.toMap == want && got.size == want.size)
  }

  test("D-CAND ships one record per distinct (pivot, NFA) pair of each map task") {
    // The database of the merge test above: identical NFAs meet within an input partition and across.
    val patex = "(.)[.{0,1}(.)]{1,2}"
    val (d, copies) = TestGen.encodeLocal(
      Seq.fill(12)(TestGen.randomDb(66, nSeqs = 8)).flatten, TestGen.toyParents)
    val sigma = 24L
    val in = sc.parallelize(copies, 4)
    val fst = FstCompiler.compile(patex, d)
    val maxFid = d.maxFrequentFid(sigma)
    val perPartition = in.glom().collect().toSeq.map(_.toSeq.flatMap(
      Drivers.dCandRecords(_, fst, d, maxFid, maxNodes = 1 << 20)))
    val distinctPerTask = perPartition.map(_.distinct.size).sum
    // Map-side merging writes fewer records than merging on the reduce side only would.
    assert(distinctPerTask < perPartition.map(_.size).sum)
    val m = Metrics.measure(spark)(Drivers.dCand(sc, in, d, patex, sigma).collect().toMap)
    assert(m.result == BruteForce.mine(copies, patex, sigma, d))
    assert(m.shuffleWriteRecords == distinctPerTask)
  }

  test("dseq, dcand, naive and seminaive == brute force on generated constraints") {
    var nonEmpty = 0
    val input = Gen.zip(TestGen.patex(3).map(PatExPrinter.print), Gen.choose(0L, 1L << 20),
                        Gen.oneOf(1L, 2L, 3L), Gen.oneOf(Gen.const(TestGen.toyParents), TestGen.hierarchy))
    val params = Test.Parameters.default.withMinSuccessfulTests(40).withMaxDiscardRatio(1)
      .withInitialSeed(Seed(20190409L))
    val res = Test.check(params, Prop.forAllNoShrink(input) { case (p, seed, sigma, parents) =>
      val (d, dbr) = TestGen.encodeLocal(TestGen.randomDb(seed, nSeqs = 10, maxLen = 7), parents)
      val want = try Some(BruteForce.mine(dbr, p, sigma, d)) catch { case _: BlowUpException => None }
      Prop(want.isDefined) ==> {
        if (want.get.nonEmpty) nonEmpty += 1
        val wrong = Seq("dseq", "dcand", "naive", "seminaive").filter(run(_, dbr, d, p, sigma) != want.get)
        Prop(wrong.isEmpty) :| s"'$p' σ=$sigma seed=$seed hierarchy=$parents: ${wrong.mkString(", ")} differ"
      }
    })
    assert(res.passed, res.status.toString)
    assert(nonEmpty >= 10, s"only $nonEmpty generated cases have frequent patterns")
  }

  test("each frequent subsequence is emitted exactly once (no duplicate keys)") {
    val (d, dbr) = TestGen.encodeLocal(TestGen.randomDb(65, nSeqs = 50), TestGen.toyParents)
    val rdd = sc.parallelize(dbr, 4)
    val patex = "(.^)[.{0,2}(.^)]{1,2}"
    for ((algo, res) <- Seq("dseq" -> Drivers.dSeq(sc, rdd, d, patex, 3),
                            "dcand" -> Drivers.dCand(sc, rdd, d, patex, 3),
                            "lash-lite" -> LashLite.mine(sc, rdd, d, 3, gamma = 2, lambda = 3))) {
      val out = res.collect()
      assert(out.length == out.map(_._1).distinct.length, algo)
      assert(out.nonEmpty, algo)
    }
  }

  test("dseq rejects an FST over DESQ-DFS's state limit on the driver") {
    val patex = s"(.){${DesqDfs.MaxFstStates}}"
    val e = intercept[IllegalArgumentException](Drivers.dSeq(sc, sc.parallelize(db, 1), dict, patex, 1))
    assert(e.getMessage.contains(s"at most ${DesqDfs.MaxFstStates} FST states"))
  }
}
