package repro.fst

import repro.dict.Dictionary

import java.util.concurrent.ConcurrentHashMap

/** Input predicate of an FST transition: which items the transition matches. */
sealed trait InPred extends Serializable {
  def matches(t: Int, dict: Dictionary): Boolean
}
object InPred {
  /** `.` — matches any item. */
  case object AnyIn extends InPred {
    def matches(t: Int, dict: Dictionary): Boolean = true
  }
  /** `w` — matches any descendant of `w` (reflexive). */
  final case class DescIn(w: Int) extends InPred {
    def matches(t: Int, dict: Dictionary): Boolean = dict.isDesc(t, w)
  }
  /** `w=` — matches exactly `w`. */
  final case class ExactIn(w: Int) extends InPred {
    def matches(t: Int, dict: Dictionary): Boolean = t == w
  }
}

/** Output function of an FST transition: what a matched item may produce.
  *
  * An output set is represented as a sorted `Array[Int]` of fids where fid 0
  * stands for ε (the empty output). Per the DESQ model each produced non-ε
  * item is an ancestor of the input item.
  */
sealed trait OutOp extends Serializable {
  def outputs(t: Int, dict: Dictionary): Array[Int]
}
object OutOp {
  private val EpsSet = Array(0)
  /** Uncaptured expression — matches but outputs nothing. */
  case object EpsOut extends OutOp {
    def outputs(t: Int, dict: Dictionary): Array[Int] = EpsSet
  }
  /** Captured `w` / `.` — outputs the matched item itself. */
  case object SelfOut extends OutOp {
    def outputs(t: Int, dict: Dictionary): Array[Int] = Array(t)
  }
  /** Captured `.↑` — outputs all ancestors of the matched item (incl. itself). */
  case object AncOut extends OutOp {
    def outputs(t: Int, dict: Dictionary): Array[Int] = dict.anc(t)
  }
  /** Captured `w↑` — outputs ancestors of the matched item up to `w`. */
  final case class AncUpToOut(w: Int) extends OutOp {
    def outputs(t: Int, dict: Dictionary): Array[Int] = dict.ancUpTo(t, w)
  }
  /** Captured `w↑=` / `w=` — always outputs `w` itself. */
  final case class ConstOut(w: Int) extends OutOp {
    def outputs(t: Int, dict: Dictionary): Array[Int] = Array(w)
  }
}

/** One consuming FST transition `(from, in, out, to)`. */
final case class Transition(from: Int, in: InPred, out: OutOp, to: Int) extends Serializable

/** The FST's moves on one input item, for every state: the transitions of
  * state `q` that match the item are the indices `start(q) until start(q + 1)`,
  * in `byState(q)` order. For each, `to(j)` is its target state, `out(j)` its
  * sorted output set on the item and `epsOnly(j)` whether that set is `{ε}`.
  *
  * Rows of items that match the same transitions share `start`, `to`,
  * `epsOnly` and `outFn`. A row's own data is `sets`: the output set on its
  * item of each of the FST's distinct output functions, indexed by `outFn(j)`,
  * so every row has as many sets, and steps with the same `outFn` share one.
  * Immutable, with final fields only, so it is safe to share between threads.
  */
final class StepRow(
    val start: Array[Int],
    val to: Array[Int],
    val epsOnly: Array[Boolean],
    val outFn: Array[Int],
    val sets: Array[Array[Int]]
) {
  def out(j: Int): Array[Int] = sets(outFn(j))

  private[fst] def withSets(sets: Array[Array[Int]]): StepRow = new StepRow(start, to, epsOnly, outFn, sets)
}

/** A compressed (ε-free) finite state transducer, per Sec. IV of the paper.
  *
  * States are `0 until numStates`; state 0 is initial. `byState(q)` lists the
  * transitions leaving `q`. The FST is broadcast to workers, so everything in
  * here is plain serializable data, apart from the transient step table.
  */
final class Fst(
    val numStates: Int,
    val initial: Int,
    val isFinal: Array[Boolean],
    val transitions: Array[Transition]
) extends Serializable {

  val byState: Array[Array[Transition]] = {
    val a = Array.fill(numStates)(Vector.empty[Transition])
    for (t <- transitions) a(t.from) = a(t.from) :+ t
    a.map(_.toArray)
  }

  def numTransitions: Int = transitions.length

  // Step table: one row per input item, built on first use, so it holds only
  // the items a task touches. Like `Dictionary.anc`, racing fills are benign:
  // rows are immutable and equal, and a lost write only costs a rebuild.
  @transient @volatile private var stepRows: Array[StepRow] = _

  /** The moves on input item `item`; `dict` must be the dictionary this FST
    * was compiled against.
    */
  def steps(item: Int, dict: Dictionary): StepRow = {
    var rows = stepRows
    if (rows == null) { rows = new Array[StepRow](dict.size + 1); stepRows = rows }
    val cached = rows(item)
    if (cached != null) return cached
    val row = buildRow(item, dict)
    rows(item) = row
    row
  }

  // Distinct output functions: a row keeps one output set per function.
  @transient private lazy val outOps: Array[OutOp] = transitions.map(_.out).distinct
  // Row shapes (rows without output sets), keyed by the matching transitions.
  @transient private lazy val shapes = new ConcurrentHashMap[Vector[Transition], StepRow]

  private def buildRow(item: Int, dict: Dictionary): StepRow = {
    val matching = byState.iterator.flatMap(_.iterator.filter(_.in.matches(item, dict))).toVector
    val shape = shapes.computeIfAbsent(matching, _ => {
      val start = new Array[Int](numStates + 1)
      for (tr <- matching) start(tr.from + 1) += 1
      for (q <- 0 until numStates) start(q + 1) += start(q)
      new StepRow(start, matching.map(_.to).toArray, matching.map(_.out == OutOp.EpsOut).toArray,
        matching.map(tr => outOps.indexOf(tr.out)).toArray, null)
    })
    shape.withSets(outOps.map(_.outputs(item, dict)))
  }

  override def toString: String = {
    val fs = isFinal.zipWithIndex.collect { case (true, q) => q }.mkString(",")
    s"Fst(states=$numStates, initial=$initial, finals={$fs},\n" +
      transitions.map(t => s"  ${t.from} -[${t.in}/${t.out}]-> ${t.to}").mkString("\n") + ")"
  }
}
