package repro.core

import org.apache.spark.{HashPartitioner, SparkContext}
import org.apache.spark.rdd.{RDD, ShuffledRDD}
import org.apache.spark.serializer.KryoSerializer
import repro.dict.Dictionary
import repro.fst.{Fst, FstCompiler, FstSimulator}

import scala.collection.mutable
import scala.reflect.ClassTag

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
    * `ρk(T)` to each pivot partition as varint bytes; the reduce phase runs
    * pivot-restricted DESQ-DFS, which prunes by pivot (Sec. V-C).
    */
  def dSeq(
      sc: SparkContext,
      sequences: RDD[Array[Int]],
      dict: Dictionary,
      patex: String,
      sigma: Long
  ): RDD[(Pattern, Long)] = {
    val fst = FstCompiler.compile(patex, dict)
    require(fst.numStates <= DesqDfs.MaxFstStates,
      s"D-SEQ: '$patex' compiles to an FST of ${fst.numStates} states, but DESQ-DFS " +
        s"supports at most ${DesqDfs.MaxFstStates} FST states")
    val maxFid = dict.maxFrequentFid(sigma)
    val bcDict = sc.broadcast(dict)
    val bcFst = sc.broadcast(fst)
    // 99–100% of the `(k, ρk(T))` records are distinct; a weight would only grow them.
    minePivots(sequences)(_.flatMap(dSeqRecords(_, bcFst.value, bcDict.value, maxFid)))(
      dSeqMine(_, _, bcFst.value, bcDict.value, sigma, maxFid))
  }

  /** D-SEQ's map side: `(k, ρk(t))` per pivot `k` of `t`, in pivot order, with the fids written
    * as [[Varint]]s. The f-list gives frequent items the smallest fids, so most items take one
    * or two bytes. Pivots whose rewrite is `t` itself share one encoding of `t`.
    */
  private[repro] def dSeqRecords(t: Array[Int], fst: Fst, dict: Dictionary,
                                 maxFid: Int): Iterator[(Int, Array[Byte])] = {
    lazy val whole = Varint.encode(t)
    val g = PivotSearch.grid(t, fst, dict, maxFid)
    g.pivots.iterator.map { k =>
      val r = PivotSearch.rewrite(t, g, k)
      (k, if (r eq t) whole else Varint.encode(r))
    }
  }

  /** D-SEQ's reduce side: pivot-restricted DESQ-DFS over pivot `k`'s records, each decoded once. */
  private[repro] def dSeqMine(k: Int, records: IndexedSeq[Array[Byte]], fst: Fst, dict: Dictionary,
                              sigma: Long, maxFid: Int): Iterator[(Pattern, Long)] =
    DesqDfs.mine(records.map(b => (Varint.decode(b), 1L)), fst, dict, sigma, maxFid, Some(k)).iterator

  /** D-CAND (Sec. VI): item-based partitioning with candidate representation.
    * The map phase encodes each sequence's pivot-k candidates as a minimized
    * NFA and serializes it, and each map task merges identical `(k, nfa)`
    * records into weighted ones. The reduce phase counts candidates directly
    * on the compressed NFAs, one pivot at a time.
    */
  def dCand(
      sc: SparkContext,
      sequences: RDD[Array[Int]],
      dict: Dictionary,
      patex: String,
      sigma: Long,
      maxNodes: Int = 1 << 20
  ): RDD[(Pattern, Long)] = {
    val fst = FstCompiler.compile(patex, dict)
    val maxFid = dict.maxFrequentFid(sigma)
    val bcDict = sc.broadcast(dict)
    val bcFst = sc.broadcast(fst)
    minePivots(sequences)(dCandTask(_, bcFst.value, bcDict.value, maxFid, maxNodes))(dCandMine(_, _, sigma))
  }

  /** D-CAND's map side: `(k, serialized minimized NFA of t's pivot-k candidates)` per pivot `k`
    * of `t`.
    */
  private[repro] def dCandRecords(t: Array[Int], fst: Fst, dict: Dictionary, maxFid: Int,
                                  maxNodes: Int): Iterator[(Int, NfaSerializer.Bytes)] =
    Nfa.buildForSequence(t, fst, dict, maxFid, maxNodes)
      .iterator.map { case (k, nfa) => (k, NfaSerializer.serialize(nfa)) }

  /** D-CAND's map task: the [[dCandRecords]] of its sequences as `(k, (nfa, weight))`. Identical
    * `(k, nfa)` records are summed in one hash table per pivot, keyed by the NFA alone (a
    * [[NfaSerializer.Bytes]] caches its hash), so the task ships one record per distinct pair
    * and no record is hashed as a tuple; the table cannot spill, as it holds only the task's
    * own distinct records.
    */
  private[repro] def dCandTask(seqs: Iterator[Array[Int]], fst: Fst, dict: Dictionary, maxFid: Int,
                               maxNodes: Int): Iterator[(Int, (NfaSerializer.Bytes, Long))] = {
    val byK = mutable.HashMap.empty[Int, mutable.HashMap[NfaSerializer.Bytes, Long]]
    for ((k, b) <- seqs.flatMap(dCandRecords(_, fst, dict, maxFid, maxNodes)))
      addWeight(byK.getOrElseUpdate(k, mutable.HashMap.empty), b, 1L)
    byK.iterator.flatMap { case (k, ws) => ws.iterator.map((k, _)) }
  }

  /** D-CAND's reduce side: pivot `k`'s weighted NFAs, which stay serialized until `k` is mined.
    * Equal NFAs from different map tasks merge their weights before they are decoded.
    */
  private[repro] def dCandMine(k: Int, nfas: IndexedSeq[(NfaSerializer.Bytes, Long)], sigma: Long) = {
    val ws = mutable.HashMap.empty[NfaSerializer.Bytes, Long]
    for ((b, w) <- nfas) addWeight(ws, b, w)
    NfaMiner.mine(ws.iterator.map { case (b, w) => (NfaSerializer.deserialize(b), w) }.toIndexedSeq, sigma, k)
      .iterator
  }

  private def addWeight(ws: mutable.HashMap[NfaSerializer.Bytes, Long], b: NfaSerializer.Bytes, w: Long): Unit =
    ws.updateWith(b)(sum => Some(sum.getOrElse(0L) + w))

  /** Item-based partitioning (Alg. 1) for D-SEQ, D-CAND and LASH-lite: each map task turns its
    * sequences into `(k, value)` `records`, one plain shuffle sends pivot `k`'s records to
    * partition `k mod defaultParallelism`, and each reduce partition groups its values by pivot
    * and `mine`s one pivot at a time. The shuffle has no aggregator, so Spark writes it with its
    * bypass-merge writer, and it ships with Kryo, whose conf registers [[NfaSerializer.Bytes]]
    * so that no D-CAND record carries that class's name.
    */
  private[repro] def minePivots[V: ClassTag](sequences: RDD[Array[Int]])(
      records: Iterator[Array[Int]] => Iterator[(Int, V)])(
      mine: (Int, IndexedSeq[V]) => Iterator[(Pattern, Long)]): RDD[(Pattern, Long)] = {
    val sc = sequences.sparkContext
    val kryo = sc.getConf.registerKryoClasses(Array(classOf[NfaSerializer.Bytes]))
    new ShuffledRDD[Int, V, V](sequences.mapPartitions(records), new HashPartitioner(sc.defaultParallelism))
      .setSerializer(new KryoSerializer(kryo))
      .mapPartitions { recs =>
        val byK = mutable.HashMap.empty[Int, mutable.Builder[V, Vector[V]]]
        for ((k, v) <- recs) byK.getOrElseUpdate(k, Vector.newBuilder) += v
        byK.iterator.flatMap { case (k, vs) => mine(k, vs.result()) }
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
      .filter { case (_, f) =>
        // NAIVE counts candidates with infrequent items too; they can never be
        // frequent (antimonotonicity), so the threshold filter drops them.
        f >= sigma
      }
  }
}
