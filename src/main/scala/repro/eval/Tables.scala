package repro.eval

import org.apache.spark.sql.SparkSession
import repro.core.{BruteForce, DesqDfs, Drivers}
import repro.data.{SeqDB, SeqData}
import repro.fst.{BlowUpException, FstCompiler}
import repro.util.Metrics

/** Harnesses that regenerate the paper's evaluation tables on the synthetic
  * datasets. Each `run` returns the formatted table as a string (printed by
  * the `jobs/` entrypoints and the `bench/` suites) so a reader can diff the
  * rows against the paper's numbers recorded in EXPERIMENTS.md.
  */
object Tables {

  // Scale factors of the bench-scale datasets.
  private val NytSf = 0.5
  private val AmznSf = 0.5
  private val CwSf = 0.25
  /** Example sequences per row of Tab. III. */
  private val TopK = 3
  /** Cap on the candidates enumerated per sequence by Tab. IV and by NAIVE / SEMI-NAIVE. */
  private val CandidateCap = 200000
  // The scalability table's constraint T3(σ, γ, λ) and its σ on all of AMZN-F.
  private val ScalabilityGamma = 1
  private val ScalabilityLambda = 5
  private val ScalabilityBaseSigma = 24L

  /** Bench-scale datasets (SF chosen so the full bench stays in minutes). */
  final case class Datasets(nyt: SeqDB, amzn: SeqDB, amznF: SeqDB, cw: SeqDB) {
    def apply(name: String): SeqDB = name match {
      case "nyt" => nyt; case "amzn" => amzn; case "amznF" => amznF; case "cw" => cw
    }
  }

  def loadDatasets(spark: SparkSession): Datasets = {
    val ds = Datasets(
      nyt = SeqData.encode(SeqData.nytLite(spark, NytSf)),
      amzn = SeqData.encode(SeqData.amznLite(spark, AmznSf)),
      amznF = SeqData.encode(SeqData.amznLiteF(spark, AmznSf)),
      cw = SeqData.encode(SeqData.cwLite(spark, CwSf)))
    // materialize the caches so later timing runs exclude generation
    ds.nyt.sequences.count(); ds.amzn.sequences.count()
    ds.amznF.sequences.count(); ds.cw.sequences.count()
    ds
  }

  // ------------------------------------------------------------------ Tab II

  /** Tab. II: dataset and hierarchy characteristics. */
  def tableII(ds: Datasets): String = {
    val rows = Seq("nyt" -> "NYT", "amzn" -> "AMZN", "amznF" -> "AMZN-F", "cw" -> "CW50")
      .map { case (key, label) =>
        val db = ds(key)
        val lens = db.sequences.map(_.length.toLong)
        val nSeq = db.sequences.count()
        val totalItems = lens.sum().toLong
        val unique = db.sequences.flatMap(_.iterator).distinct().count()
        val maxLen = lens.max()
        val meanLen = totalItems.toDouble / nSeq
        val d = db.dict
        val hierItems = d.size
        val bcDict = db.sequences.sparkContext.broadcast(d)
        val ancStats = db.sequences
          .flatMap(t => t.iterator.map(f => bcDict.value.anc(f).length.toLong))
        val maxAnc = ancStats.max()
        val meanAnc = ancStats.sum().toDouble / totalItems
        f"$label%-8s ${nSeq}%10d ${totalItems}%12d ${unique}%8d ${maxLen}%8d " +
          f"${meanLen}%8.1f ${hierItems}%10d ${maxAnc}%8d ${meanAnc}%8.1f"
      }
    ("Dataset    sequences   totalItems   unique   maxLen  meanLen  hierItems   maxAnc  meanAnc\n"
      + rows.mkString("\n"))
  }

  // ----------------------------------------------------------------- Tab III

  /** Tab. III: example frequent sequences found per constraint (via D-SEQ). */
  def tableIII(spark: SparkSession, ds: Datasets): String = {
    val rows = Constraints.tableIVBattery.map { c =>
      val db = ds(c.dataset)
      val res = Drivers.dSeq(spark.sparkContext, db.sequences, db.dict, c.patex, c.sigma)
        .collect()
      val total = res.length
      val examples = res.sortBy(-_._2).take(TopK)
        .map { case (p, f) => s"'${p.items.map(db.dict.name).mkString(" ")}' ($f)" }
        .mkString(", ")
      f"${c.name}%-14s ${c.dataset}%-6s ${total}%8d  $examples"
    }
    "Constraint     data    #freq  example frequent sequences (support)\n" + rows.mkString("\n")
  }

  // ------------------------------------------------------------------ Tab IV

  /** Tab. IV: statistics on candidate subsequences. Per-sequence candidate
    * sets are enumerated with a cap (the paper itself sampled for T1(400,5)).
    */
  def tableIV(spark: SparkSession, ds: Datasets): String = {
    val rows = Constraints.tableIVBattery.map { c =>
      val db = ds(c.dataset)
      val fst = FstCompiler.compile(c.patex, db.dict)
      val maxFid = db.dict.maxFrequentFid(c.sigma)
      val bcDict = spark.sparkContext.broadcast(db.dict)
      val bcFst = spark.sparkContext.broadcast(fst)
      val counts = db.sequences
        .map(BruteForce.candidateCount(_, bcFst.value, bcDict.value, maxFid, CandidateCap))
        .collect()
      val nSeq = counts.length
      val matched = counts.count(_ > 0)
      val total = counts.sum
      val capped = counts.count(_ >= CandidateCap)
      val cspis = counts.filter(_ > 0).sorted
      val mean = if (matched == 0) 0.0 else total.toDouble / matched
      val median = if (matched == 0) 0L else cspis(cspis.length / 2)
      f"${c.name}%-14s ${c.dataset}%-6s ${100.0 * matched / nSeq}%7.1f ${total}%12d " +
        f"${mean}%10.1f ${median}%8d" + (if (capped > 0) s"  [$capped seqs capped at $CandidateCap]" else "")
    }
    ("Constraint     data   matched%   #cand.seqs  CSPI-mean  CSPI-med\n" + rows.mkString("\n"))
  }

  // ------------------------------------------------------------------- Tab V

  /** Tab. V: run time of sequential DESQ-DFS (1 thread, on the driver) vs
    * D-SEQ and D-CAND on `local[*]`, with speed-ups.
    */
  def tableV(spark: SparkSession, ds: Datasets,
             battery: Seq[Constraints.Constraint]): String = {
    val rows = battery.map { c =>
      val db = ds(c.dataset)
      val local = db.sequences.collect().toIndexedSeq

      val fst = FstCompiler.compile(c.patex, db.dict)
      val maxFid = db.dict.maxFrequentFid(c.sigma)
      val t0 = System.nanoTime()
      val seqRes = DesqDfs.mine(local.map((_, 1L)), fst, db.dict, c.sigma, maxFid)
      val tSeq = (System.nanoTime() - t0) / 1e9

      val mSeq = Metrics.measure(spark) {
        Drivers.dSeq(spark.sparkContext, db.sequences, db.dict, c.patex, c.sigma).collect().toMap
      }
      val mCand = Metrics.measure(spark) {
        Drivers.dCand(spark.sparkContext, db.sequences, db.dict, c.patex, c.sigma).collect().toMap
      }
      require(mSeq.result == seqRes && mCand.result == seqRes,
        s"result maps differ for ${c.name}: desqdfs=${seqRes.size} dseq=${mSeq.result.size} dcand=${mCand.result.size}")
      val dseqS = mSeq.wallMillis / 1e3
      val dcandS = mCand.wallMillis / 1e3
      f"${c.name}%-14s ${c.dataset}%-6s ${seqRes.size}%8d ${tSeq}%9.1f " +
        f"${dseqS}%9.1f (${tSeq / dseqS}%4.1fx) ${dcandS}%9.1f (${tSeq / dcandS}%4.1fx)"
    }
    ("Constraint     data      #freq  DESQ-DFS      D-SEQ (speedup)    D-CAND (speedup)   [seconds]\n"
      + rows.mkString("\n"))
  }

  // ------------------------------------------- Fig 11a-style data scalability

  /** Data scalability (Fig. 11a as a table): D-SEQ and D-CAND on growing
    * samples of AMZN-F with σ scaled like the paper (25/50/75/100 → here
    * proportional), expecting near-linear growth of run time.
    */
  def scalabilityTable(spark: SparkSession, ds: Datasets): String = {
    val rows = Seq(0.25, 0.5, 0.75, 1.0).map { frac =>
      val sample =
        if (frac >= 1.0) ds.amznF.sequences
        else ds.amznF.sequences.sample(withReplacement = false, frac, seed = 1).cache()
      val n = sample.count()
      val sigma = math.max(2L, (ScalabilityBaseSigma * frac).toLong)
      val patex = s"(.^)[.{0,$ScalabilityGamma}(.^)]{1,${ScalabilityLambda - 1}}"
      val mSeq = Metrics.measure(spark) {
        Drivers.dSeq(spark.sparkContext, sample, ds.amznF.dict, patex, sigma).count()
      }
      val mCand = Metrics.measure(spark) {
        Drivers.dCand(spark.sparkContext, sample, ds.amznF.dict, patex, sigma).count()
      }
      if (frac < 1.0) sample.unpersist()
      f"${(frac * 100).toInt}%3d%% ${n}%8d  σ=$sigma%-5d ${mSeq.wallMillis / 1e3}%8.1f s " +
        f"${mCand.wallMillis / 1e3}%8.1f s  (#freq ${mSeq.result})"
    }
    "data  sequences  sigma     D-SEQ      D-CAND\n" + rows.mkString("\n")
  }

  // --------------------------------------------- Fig 9-style baseline table

  /** NAIVE / SEMI-NAIVE / D-SEQ / D-CAND run time and shuffle size (the
    * paper's Fig. 9, recorded as a table).
    */
  def baselinesTable(spark: SparkSession, ds: Datasets,
                     battery: Seq[Constraints.Constraint]): String = {
    val algos = Seq("NAIVE", "SEMI-NAIVE", "D-SEQ", "D-CAND")
    val rows = battery.flatMap { c =>
      val db = ds(c.dataset)
      algos.map { algo =>
        val res =
          try {
            val m = Metrics.measure(spark) {
              (algo match {
                case "NAIVE"      => Drivers.naive(spark.sparkContext, db.sequences, db.dict, c.patex, c.sigma, CandidateCap)
                case "SEMI-NAIVE" => Drivers.semiNaive(spark.sparkContext, db.sequences, db.dict, c.patex, c.sigma, CandidateCap)
                case "D-SEQ"      => Drivers.dSeq(spark.sparkContext, db.sequences, db.dict, c.patex, c.sigma)
                case "D-CAND"     => Drivers.dCand(spark.sparkContext, db.sequences, db.dict, c.patex, c.sigma)
              }).count()
            }
            f"${m.wallMillis / 1e3}%8.1f s ${m.shuffleWriteBytes / 1024.0}%10.0f KB ${m.result}%8d"
          } catch {
            case e: Exception if BlowUpException.inCauseChain(e) =>
              "     n/a (blow-up, OOM analog)"
          }
        f"${c.name}%-14s ${algo}%-11s $res"
      }
    }
    ("Constraint     algo          time      shuffle     #freq\n" + rows.mkString("\n"))
  }
}
