package repro.core

import org.apache.spark.{Partitioner, SparkContext}
import org.apache.spark.rdd.{RDD, ShuffledRDD}
import org.apache.spark.serializer.KryoSerializer
import repro.dict.Dictionary
import repro.fst.{Fst, FstCompiler, FstSimulator}

import scala.collection.mutable
import scala.reflect.{classTag, ClassTag}

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
    // 99–100% of the `(k, ρk(T))` records are distinct; a weight would only grow them.
    minePivots(sequences, aggregate = false)(dSeqRecords(_, bcFst.value, bcDict.value, maxFid, rewrite))(
      (k, seqs) => DesqDfs.mine(seqs, bcFst.value, bcDict.value, sigma, maxFid, Some(k), earlyStop).iterator)
  }

  /** D-SEQ's map side: `(k, ρk(t))`, or `(k, t)` without `rewrite`, per pivot `k` of `t`. */
  private[repro] def dSeqRecords(t: Array[Int], fst: Fst, dict: Dictionary, maxFid: Int,
                                 rewrite: Boolean): Iterator[(Int, Array[Int])] = {
    val g = PivotSearch.grid(t, fst, dict, maxFid)
    g.pivots.iterator.map(k => (k, if (rewrite) PivotSearch.rewrite(t, g, k) else t))
  }

  /** D-CAND (Sec. VI): item-based partitioning with candidate representation.
    * The map phase encodes each sequence's pivot-k candidates as a minimized
    * NFA and serializes it; with `aggregate`, identical `(k, nfa)` records
    * are merged into weighted ones. The reduce phase counts candidates
    * directly on the compressed NFAs, one pivot at a time.
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
    minePivots(sequences, aggregate)(
      dCandRecords(_, bcFst.value, bcDict.value, maxFid, maxNodes, minimizeNfas))(dCandMine(_, _, sigma))
  }

  /** D-CAND's map side: `(k, serialized NFA of t's pivot-k candidates)` per pivot `k` of `t`. */
  private[repro] def dCandRecords(t: Array[Int], fst: Fst, dict: Dictionary, maxFid: Int, maxNodes: Int,
                                  minimize: Boolean): Iterator[(Int, NfaSerializer.Bytes)] =
    Nfa.buildForSequence(t, fst, dict, maxFid, maxNodes, minimize)
      .iterator.map { case (k, nfa) => (k, NfaSerializer.serialize(nfa)) }

  /** D-CAND's reduce side: NFAs stay serialized until their pivot `k` is mined. */
  private[repro] def dCandMine(k: Int, nfas: IndexedSeq[(NfaSerializer.Bytes, Long)], sigma: Long) =
    NfaMiner.mine(nfas.map { case (b, w) => (NfaSerializer.deserialize(b), w) }, sigma, k).iterator

  /** Item-based partitioning (Alg. 1) for D-SEQ, D-CAND and LASH-lite: one shuffle sends the
    * `(k, value)` `records` of pivot `k` to partition `k mod defaultParallelism`, and each reduce
    * partition `mine`s its pivots in turn.
    *
    * With `aggregate`, identical records merge into weights by one hash pass per map task and
    * one per reduce partition, each keyed per pivot by the value alone (a [[NfaSerializer.Bytes]]
    * caches its hash), so no record is sorted or hashed as a tuple. A map task ships one
    * `((k, value), weight)` record per distinct pair through a plain shuffle with Kryo, `V`'s
    * class registered so that no record carries its name. Neither table spills: a map task's
    * holds at most its own distinct records, and a reduce partition holds its records in memory
    * anyway. Without `aggregate`, records ship with Kryo when `V`'s `ClassTag` shows primitives or
    * their arrays.
    */
  private[repro] def minePivots[V: ClassTag](sequences: RDD[Array[Int]], aggregate: Boolean)(
      records: Array[Int] => Iterator[(Int, V)])(
      mine: (Int, IndexedSeq[(V, Long)]) => Iterator[(Pattern, Long)]): RDD[(Pattern, Long)] = {
    val byPivot = new PivotPartitioner(sequences.sparkContext.defaultParallelism)
    if (aggregate) {
      val perTask = sequences.mapPartitions { seqs =>
        val sums = new PivotWeights[V]
        for (t <- seqs; (k, v) <- records(t)) sums.add(k, v, 1L)
        sums.byK.iterator.flatMap { case (k, vs) => vs.iterator.map { case (v, w) => ((k, v), w) } }
      }
      val kryo = sequences.sparkContext.getConf.registerKryoClasses(Array(classTag[V].runtimeClass))
      new ShuffledRDD[(Int, V), Long, Long](perTask, byPivot)
        .setSerializer(new KryoSerializer(kryo))
        .mapPartitions { recs =>
          val sums = new PivotWeights[V]
          for (((k, v), w) <- recs) sums.add(k, v, w)
          sums.byK.iterator.flatMap { case (k, vs) => mine(k, vs.toIndexedSeq) }
        }
    } else sequences.flatMap(records).partitionBy(byPivot).mapPartitions { recs =>
      val byK = mutable.HashMap.empty[Int, mutable.Builder[(V, Long), Vector[(V, Long)]]]
      for ((k, v) <- recs) byK.getOrElseUpdate(k, Vector.newBuilder) += ((v, 1L))
      byK.iterator.flatMap { case (k, vs) => mine(k, vs.result()) }
    }
  }

  /** Weights of `(k, value)` records, summed per pivot `k` and value. */
  private final class PivotWeights[V] {
    val byK = mutable.HashMap.empty[Int, mutable.HashMap[V, Long]]
    def add(k: Int, v: V, w: Long): Unit =
      byK.getOrElseUpdate(k, mutable.HashMap.empty).updateWith(v) {
        case Some(sum) => Some(sum + w)
        case None      => Some(w)
      }
  }

  /** Places a `k` or `(k, value)` key by `k` alone, so all records of a pivot meet in one partition. */
  private final class PivotPartitioner(val numPartitions: Int) extends Partitioner {
    def getPartition(key: Any): Int = java.lang.Math.floorMod(key match {
      case (k: Int, _) => k
      case k: Int      => k
    }, numPartitions)
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
