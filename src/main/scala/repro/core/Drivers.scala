package repro.core

import org.apache.spark.{Partitioner, SparkContext}
import org.apache.spark.rdd.RDD
import repro.dict.Dictionary
import repro.fst.{Fst, FstCompiler, FstSimulator}

import scala.collection.mutable

/** Distributed FSM drivers (Alg. 1 of the paper): map over input sequences,
  * one round of shuffle, then mine each partition independently.
  *
  * All drivers take fid-encoded sequences plus the dictionary, broadcast the
  * dictionary and the compiled FST, and return an RDD of
  * `(frequent subsequence, frequency)` — each frequent subsequence exactly
  * once, with its exact frequency.
  */
object Drivers {

  /** D-SEQ (Sec. V): item-based partitioning with sequence representation.
    * The map phase finds the pivot items `K(T)` of every input sequence with
    * the position–state grid and ships the leading/trailing-trimmed rewrite
    * `ρk(T)` to each pivot partition; the reduce phase runs pivot-restricted
    * DESQ-DFS with pivot pruning.
    */
  def dSeq(
      sc: SparkContext,
      sequences: RDD[Array[Int]],
      dict: Dictionary,
      patex: String,
      sigma: Long,
      rewrite: Boolean = true,
      earlyStop: Boolean = true
  ): RDD[(Pattern, Long)] = {
    val fst = FstCompiler.compile(patex, dict)
    require(fst.numStates <= DesqDfs.MaxFstStates,
      s"D-SEQ: '$patex' compiles to an FST of ${fst.numStates} states, but DESQ-DFS " +
        s"supports at most ${DesqDfs.MaxFstStates} FST states")
    val maxFid = dict.maxFrequentFid(sigma)
    val bcDict = sc.broadcast(dict)
    val bcFst = sc.broadcast(fst)
    sequences
      .flatMap { t =>
        val g = PivotSearch.grid(t, bcFst.value, bcDict.value, maxFid)
        g.pivots.iterator.map { k =>
          (k, if (rewrite) PivotSearch.rewrite(t, g, k) else t)
        }
      }
      .groupByKey(sc.defaultParallelism)
      .flatMap { case (k, seqs) =>
        DesqDfs.mine(
          seqs.iterator.map((_, 1L)).toIndexedSeq,
          bcFst.value, bcDict.value, sigma, maxFid,
          pivot = Some(k), earlyStop = earlyStop)
      }
  }

  /** D-CAND (Sec. VI): item-based partitioning with candidate representation.
    * The map phase encodes each sequence's pivot-k candidates as a minimized
    * NFA and serializes it. One shuffle sends every `(k, nfa)` record to the
    * partition of pivot `k`: with `aggregate`, a `reduceByKey` under that
    * pivot partitioner merges identical NFAs into weighted ones, map-side
    * (the MapReduce combine) and again on the reduce side. Each reduce
    * partition then groups its NFAs by pivot and counts candidates directly
    * on the compressed NFAs, one pivot at a time.
    */
  def dCand(
      sc: SparkContext,
      sequences: RDD[Array[Int]],
      dict: Dictionary,
      patex: String,
      sigma: Long,
      aggregate: Boolean = true,
      minimizeNfas: Boolean = true,
      maxNodes: Int = 1 << 20
  ): RDD[(Pattern, Long)] = {
    val fst = FstCompiler.compile(patex, dict)
    val maxFid = dict.maxFrequentFid(sigma)
    val bcDict = sc.broadcast(dict)
    val bcFst = sc.broadcast(fst)
    val byPivot = new PivotPartitioner(sc.defaultParallelism)

    val perSeq = sequences.flatMap { t =>
      Nfa.buildForSequence(t, bcFst.value, bcDict.value, maxFid, maxNodes,
                           minimize = minimizeNfas)
        .iterator.map { case (k, nfa) => ((k, NfaSerializer.serialize(nfa)), 1L) }
    }
    val weighted =
      if (aggregate) perSeq.reduceByKey(byPivot, _ + _)
      else perSeq.partitionBy(byPivot) // identical NFAs stay separate — the "no agg" ablation
    weighted.mapPartitions { records =>
      val byK = mutable.HashMap.empty[Int, mutable.ArrayBuffer[(NfaSerializer.Bytes, Long)]]
      for (((k, bytes), w) <- records)
        byK.getOrElseUpdate(k, mutable.ArrayBuffer.empty) += ((bytes, w))
      // NFAs stay serialized until their pivot is mined.
      byK.iterator.flatMap { case (k, nfas) =>
        NfaMiner.mine(
          nfas.iterator.map { case (b, w) => (NfaSerializer.deserialize(b), w) }.toIndexedSeq,
          sigma, k)
      }
    }
  }

  /** Places a `(pivot, nfa)` key by its pivot alone, as a `HashPartitioner`
    * over the pivot would, so that all NFAs of one pivot meet in one reduce
    * partition while identical NFAs are still merged by the whole key.
    */
  private final class PivotPartitioner(val numPartitions: Int) extends Partitioner {
    def getPartition(key: Any): Int = key match {
      case (k: Int, _) => java.lang.Math.floorMod(k, numPartitions)
    }
  }

  /** NAIVE (Sec. III-A): subsequence-based partitioning — generate every
    * candidate subsequence and count by key, like word count.
    */
  def naive(
      sc: SparkContext,
      sequences: RDD[Array[Int]],
      dict: Dictionary,
      patex: String,
      sigma: Long,
      maxCands: Int = 1 << 20
  ): RDD[(Pattern, Long)] =
    naiveImpl(sc, sequences, dict, patex, sigma, maxFidFilter = false, maxCands)

  /** SEMI-NAIVE (Sec. III-A): NAIVE restricted to candidates made entirely of
    * frequent items (`Gσπ`), exploiting item-frequency antimonotonicity.
    */
  def semiNaive(
      sc: SparkContext,
      sequences: RDD[Array[Int]],
      dict: Dictionary,
      patex: String,
      sigma: Long,
      maxCands: Int = 1 << 20
  ): RDD[(Pattern, Long)] =
    naiveImpl(sc, sequences, dict, patex, sigma, maxFidFilter = true, maxCands)

  private def naiveImpl(
      sc: SparkContext,
      sequences: RDD[Array[Int]],
      dict: Dictionary,
      patex: String,
      sigma: Long,
      maxFidFilter: Boolean,
      maxCands: Int
  ): RDD[(Pattern, Long)] = {
    val fst = FstCompiler.compile(patex, dict)
    val maxFid = if (maxFidFilter) dict.maxFrequentFid(sigma) else -1
    val bcDict = sc.broadcast(dict)
    val bcFst = sc.broadcast(fst)
    sequences
      .flatMap { t =>
        FstSimulator.candidates(t, bcFst.value, bcDict.value, maxFid, maxCands)
          .iterator.map(c => (Pattern.fromList(c), 1L))
      }
      .reduceByKey(_ + _)
      .filter { case (s, f) =>
        // NAIVE counts candidates with infrequent items too; they can never be
        // frequent (antimonotonicity), so the threshold filter drops them.
        f >= sigma
      }
  }
}
