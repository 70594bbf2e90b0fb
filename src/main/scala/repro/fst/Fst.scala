package repro.fst

import repro.dict.Dictionary

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

/** A compressed (ε-free) finite state transducer, per Sec. IV of the paper.
  *
  * States are `0 until numStates`; state 0 is initial. `byState(q)` lists the
  * transitions leaving `q`. The FST is broadcast to workers, so everything in
  * here is plain serializable data.
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

  override def toString: String = {
    val fs = isFinal.zipWithIndex.collect { case (true, q) => q }.mkString(",")
    s"Fst(states=$numStates, initial=$initial, finals={$fs},\n" +
      transitions.map(t => s"  ${t.from} -[${t.in}/${t.out}]-> ${t.to}").mkString("\n") + ")"
  }
}
