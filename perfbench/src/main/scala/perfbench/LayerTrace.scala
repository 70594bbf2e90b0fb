package perfbench

import repro.core._
import repro.data.SeqData
import repro.fst.{FstCompiler, FstSimulator}

import java.nio.file.Path
import scala.collection.mutable

/** The traced run: times each layer from outside, through its public
  * functions, on the collected sequences, on one thread and without Spark.
  * It then runs D-SEQ and D-CAND once on Spark under [[JobTimer]] for their
  * per-stage task metrics, and checks every result against sequential
  * DESQ-DFS.
  *
  * The local passes do what the drivers' map and reduce functions do, in the
  * same order, so each layer's time here is its single-threaded share of the
  * drivers' summed task time.
  */
object LayerTrace {
  /** FST compilations timed for `fst.compile_ms`. */
  val CompileReps = 21

  def run(w: Workload, seed: Long, outDir: Path): Outcome = {
    val tr = new Tracer
    val spark = Main.startSpark()
    val sc = spark.sparkContext
    println(w.describe(seed))
    println(Main.environment(spark))

    // repro.data / repro.dict
    val raw = tr.span("data.generate") {
      val r = w.generate(spark, seed)
      r.sequences.cache().count()
      r
    }
    val db = tr.span("data.encode") {
      val d = SeqData.encode(raw)
      d.sequences.count()
      d
    }
    raw.sequences.unpersist()
    val dict = db.dict
    val seqs = db.sequences.collect()

    // repro.patex + repro.fst.FstCompiler
    val compileMs = (1 to CompileReps).map { _ =>
      val t0 = System.nanoTime()
      tr.span("fst.compile")(FstCompiler.compile(w.patex, dict))
      (System.nanoTime() - t0) / 1e6
    }
    val fst = FstCompiler.compile(w.patex, dict)
    val maxFid = dict.maxFrequentFid(w.sigma)

    // repro.core.DesqDfs, unrestricted: the reference result
    val reference = Fingerprint.of(
      tr.span("desqdfs.unrestricted")(DesqDfs.mine(seqs.map((_, 1L)).toIndexedSeq, fst, dict, w.sigma, maxFid)))
    println(s"reference sequential DESQ-DFS: $reference")

    // D-SEQ map side: repro.core.PivotSearch
    val partitions = mutable.HashMap.empty[Int, mutable.ArrayBuffer[Array[Int]]]
    var pairs, keptItems, pairItems = 0L
    for (t <- seqs) {
      val g = tr.span("pivot.grid")(PivotSearch.grid(t, fst, dict, maxFid))
      for (k <- g.pivots) {
        val r = tr.span("pivot.rewrite")(PivotSearch.rewrite(t, g, k))
        partitions.getOrElseUpdate(k, mutable.ArrayBuffer.empty) += r
        pairs += 1
        keptItems += r.length
        pairItems += t.length
      }
    }

    // D-SEQ reduce side: pivot-restricted repro.core.DesqDfs
    var dseqLocal = Fingerprint.empty
    for ((k, part) <- partitions) {
      val weighted = part.iterator.map((_, 1L)).toIndexedSeq
      dseqLocal = dseqLocal.merge(Fingerprint.of(
        tr.span("desqdfs.restricted")(DesqDfs.mine(weighted, fst, dict, w.sigma, maxFid, pivot = Some(k)))))
    }

    // D-CAND map side: FstSimulator runs, Nfa trie, minimization, serialization
    val weighted = mutable.HashMap.empty[(Int, NfaSerializer.Bytes), Long]
    var runs, nfas, statesBefore, statesAfter, nfaBytes = 0L
    for (t <- seqs) {
      tr.span("fst.runs")(FstSimulator.foreachAcceptingRun(t, fst, dict)(_ => runs += 1))
      val tries = tr.span("nfa.build")(Nfa.buildForSequence(t, fst, dict, maxFid, minimize = false))
      for ((k, nfa) <- tries) {
        val m = tr.span("nfa.minimize")(Nfa.minimize(nfa))
        val b = tr.span("nfa.serialize")(NfaSerializer.serialize(m))
        nfas += 1
        statesBefore += nfa.numStates
        statesAfter += m.numStates
        nfaBytes += b.size
        weighted((k, b)) = weighted.getOrElse((k, b), 0L) + 1
      }
    }

    // D-CAND reduce side: repro.core.NfaMiner
    var dcandLocal = Fingerprint.empty
    for ((k, group) <- weighted.groupBy(_._1._1)) tr.span("nfaminer.pivot") {
      val received = tr.span("nfaminer.deserialize") {
        group.iterator.map { case ((_, b), wt) => (NfaSerializer.deserialize(b), wt) }.toIndexedSeq
      }
      dcandLocal = dcandLocal.merge(Fingerprint.of(tr.span("nfaminer.mine")(NfaMiner.mine(received, w.sigma, k))))
    }

    // repro.core.Drivers on Spark
    val (dseqFp, dseq) = JobTimer.time(sc, "dseq")(
      Fingerprint.of(Drivers.dSeq(sc, db.sequences, dict, w.patex, w.sigma)))
    val (dcandFp, dcand) = JobTimer.time(sc, "dcand")(
      Fingerprint.of(Drivers.dCand(sc, db.sequences, dict, w.patex, w.sigma)))
    spark.stop()

    val checks = Seq(
      "local D-SEQ layers" -> (dseqLocal == reference),
      "local D-CAND layers" -> (dcandLocal == reference),
      "Spark D-SEQ" -> (dseqFp == reference),
      "Spark D-CAND" -> (dcandFp == reference),
      s"pivot.pairs $pairs == D-SEQ shuffle records ${dseq.shuffleRecords}" -> (pairs == dseq.shuffleRecords))
    for ((what, ok) <- checks if !ok) System.err.println(s"check failed: $what")

    val spans = tr.summary
    for ((name, (count, total, self)) <- spans.toSeq.sortBy(_._1))
      println(f"span $name%-24s calls=$count%-8d total_s=$total%.4f self_s=$self%.4f")
    val file = outDir.resolve(s"trace-${w.name}-$seed.tsv")
    tr.write(file)
    println(s"spans written to $file")
    def self(name: String): Double = spans.get(name).fold(0.0)(_._3)

    val dseqLayers = self("pivot.grid") + self("pivot.rewrite") + self("desqdfs.restricted")
    val dcandLayers = self("nfa.build") + self("nfa.minimize") + self("nfa.serialize") +
      self("nfaminer.deserialize") + self("nfaminer.mine")
    def driverMetrics(algo: String, s: JobStats, localS: Double): Seq[Metric] = Seq(
      Metric(s"drivers.$algo.map_stage_s", s.mapStageS, "s"),
      Metric(s"drivers.$algo.reduce_stage_s", s.reduceStageS, "s"),
      Metric(s"drivers.$algo.task_cpu_s", s.cpuS, "s"),
      Metric(s"drivers.$algo.shuffle_write_s", s.shuffleWriteS, "s"),
      Metric(s"drivers.$algo.shuffle_fetch_wait_s", s.shuffleFetchWaitS, "s"),
      Metric(s"drivers.$algo.gc_s", s.gcS, "s"),
      Metric(s"drivers.$algo.reduce_task_max_s", s.reduceTaskMaxS, "s"),
      Metric(s"drivers.$algo.reduce_task_median_s", s.reduceTaskMedianS, "s"),
      Metric(s"drivers.$algo.driver_overhead_s", s.driverOverheadS, "s"),
      Metric(s"drivers.$algo.local_layer_frac", localS / s.workS, "ratio"))

    val metrics = Seq(
      Metric("data.generate_s", self("data.generate"), "s"),
      Metric("data.encode_s", self("data.encode"), "s"),
      Metric("data.sequences", seqs.length.toDouble, "count"),
      Metric("data.items", dict.size.toDouble, "count"),
      Metric("fst.compile_ms", Stats.median(compileMs), "ms", compileMs),
      Metric("fst.states", fst.numStates.toDouble, "count"),
      Metric("fst.transitions", fst.numTransitions.toDouble, "count"),
      Metric("pivot.grid_s", self("pivot.grid"), "s"),
      Metric("pivot.rewrite_s", self("pivot.rewrite"), "s"),
      Metric("pivot.pairs", pairs.toDouble, "count"),
      Metric("pivot.distinct_pivots", partitions.size.toDouble, "count"),
      Metric("pivot.max_partition_pairs", partitions.valuesIterator.map(_.length).maxOption.getOrElse(0).toDouble, "count"),
      Metric("pivot.rewrite_keep_frac", keptItems.toDouble / math.max(1L, pairItems), "ratio"),
      Metric("nfa.runs", runs.toDouble, "count"),
      Metric("nfa.build_s", self("nfa.build"), "s"),
      Metric("nfa.minimize_s", self("nfa.minimize"), "s"),
      Metric("nfa.states_before", statesBefore.toDouble, "count"),
      Metric("nfa.states_after", statesAfter.toDouble, "count"),
      Metric("nfa.serialize_s", self("nfa.serialize"), "s"),
      Metric("nfa.bytes", nfaBytes.toDouble, "bytes"),
      Metric("nfa.distinct_frac", weighted.size.toDouble / math.max(1L, nfas), "ratio"),
      Metric("desqdfs.unrestricted_s", self("desqdfs.unrestricted"), "s"),
      Metric("desqdfs.restricted_s", self("desqdfs.restricted"), "s"),
      Metric("desqdfs.restricted_over_unrestricted",
        self("desqdfs.restricted") / self("desqdfs.unrestricted"), "ratio"),
      Metric("desqdfs.max_pivot_s", tr.longest("desqdfs.restricted"), "s"),
      Metric("desqdfs.patterns", reference.count.toDouble, "count"),
      Metric("nfaminer.deserialize_s", self("nfaminer.deserialize"), "s"),
      Metric("nfaminer.mine_s", self("nfaminer.mine"), "s"),
      Metric("nfaminer.max_pivot_s", tr.longest("nfaminer.pivot"), "s"),
    ) ++ driverMetrics("dseq", dseq, dseqLayers) ++ driverMetrics("dcand", dcand, dcandLayers) ++ Seq(
      Metric("trace.overhead_s", tr.size * Tracer.costPerSpanS(), "s"))
    Outcome(checks.length, checks.count(!_._2), metrics)
  }
}
