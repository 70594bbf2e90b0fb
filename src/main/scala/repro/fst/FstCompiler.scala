package repro.fst

import repro.dict.Dictionary
import repro.patex.{PatEx, PatExParser}

import scala.collection.mutable

/** Compiles a DESQ pattern expression into a compressed (ε-free) FST.
  *
  * Pipeline:
  *  1. Thompson-style construction over the AST, producing an automaton with
  *     ε-moves (non-consuming) and consuming transitions labeled with an
  *     input predicate and an output operation. The `captured` context flag is
  *     propagated down `Capture` nodes and decides the output operation of
  *     each item expression (Tab. I of the paper).
  *  2. ε-elimination: pull every consuming transition reachable through the
  *     ε-closure onto the closure's root; a state is final if its closure
  *     contains a final state.
  *  3. State merging: repeatedly merge states with identical
  *     (finality, outgoing-transition-set) signatures. This is what turns the
  *     Thompson artifact for `.*(A)…` into the paper's Fig. 4 shape with a
  *     genuine self-loop on the initial state — which in turn is what makes
  *     the D-SEQ rewriting drop leading/trailing irrelevant positions.
  *  4. Dead-state pruning (states that cannot reach a final state) and
  *     renumbering so the initial state is 0.
  */
object FstCompiler {

  def compile(patex: String, dict: Dictionary): Fst = compile(PatExParser.parse(patex), dict)

  def compile(ast: PatEx, dict: Dictionary): Fst = {
    val nfa = new EpsNfa
    // DESQ semantics: a pattern expression matches anywhere in the input —
    // equivalently the expression is implicitly wrapped in uncaptured `.*`.
    // (The paper's πex writes the wrappers explicitly; Tab. III's N1/A2/T2 etc.
    // omit them but must still match mid-sequence.) Skip a wrapper when the
    // expression already starts/ends with an uncaptured `.*` so explicit
    // wrappers do not duplicate loop states.
    val parts = ast match {
      case PatEx.Concat(es) => es
      case e                => List(e)
    }
    val withLead = if (isDotStar(parts.head)) parts else PatEx.star(PatEx.Dot(false)) :: parts
    val full = if (isDotStar(withLead.last)) withLead else withLead :+ PatEx.star(PatEx.Dot(false))
    val wrapped = PatEx.Concat(full)
    val (s, f) = build(nfa, wrapped, captured = false, dict)
    nfa.initial = s
    nfa.finals += f
    val fst0 = eliminateEps(nfa)
    val fst1 = mergeStates(fst0)
    prune(fst1)
  }

  // ---------------------------------------------------------------- Thompson

  /** Mutable ε-NFA under construction. */
  private final class EpsNfa {
    var numStates = 0
    var initial = 0
    val finals = mutable.Set.empty[Int]
    val eps = mutable.ArrayBuffer.empty[(Int, Int)]
    val cons = mutable.ArrayBuffer.empty[Transition]
    def newState(): Int = { numStates += 1; numStates - 1 }
    def addEps(a: Int, b: Int): Unit = eps += ((a, b))
    def addCons(a: Int, in: InPred, out: OutOp, b: Int): Unit =
      cons += Transition(a, in, out, b)
  }

  /** Build a fragment for `e`; returns its (start, accept) states. */
  private def build(n: EpsNfa, e: PatEx, captured: Boolean, dict: Dictionary): (Int, Int) =
    e match {
      case PatEx.Item(name, gen, exact) =>
        val w = dict.fid(name)
        val in: InPred = if (exact && !gen) InPred.ExactIn(w) else InPred.DescIn(w)
        val out: OutOp =
          if (!captured) OutOp.EpsOut
          else (gen, exact) match {
            case (false, false) => OutOp.SelfOut        // (w)   -> matched item
            case (false, true)  => OutOp.ConstOut(w)    // (w=)  -> w itself
            case (true, false)  => OutOp.AncUpToOut(w)  // (w↑)  -> anc up to w
            case (true, true)   => OutOp.ConstOut(w)    // (w↑=) -> always w
          }
        val s = n.newState(); val f = n.newState()
        n.addCons(s, in, out, f)
        (s, f)

      case PatEx.Dot(gen) =>
        val out: OutOp =
          if (!captured) OutOp.EpsOut
          else if (gen) OutOp.AncOut
          else OutOp.SelfOut
        val s = n.newState(); val f = n.newState()
        n.addCons(s, InPred.AnyIn, out, f)
        (s, f)

      case PatEx.Capture(inner) => build(n, inner, captured = true, dict)

      case PatEx.Concat(es) =>
        val frags = es.map(build(n, _, captured, dict))
        frags.reduceLeft { (a, b) => n.addEps(a._2, b._1); (a._1, b._2) }

      case PatEx.Alt(es) =>
        val s = n.newState(); val f = n.newState()
        for ((bs, bf) <- es.map(build(n, _, captured, dict))) {
          n.addEps(s, bs); n.addEps(bf, f)
        }
        (s, f)

      case PatEx.Repeat(inner0, min, max) =>
        // DESQ gap-collapse (observed in the paper's Fig. 4 FST): inside an
        // unbounded repetition, an uncaptured `.*` at the edge of a
        // concatenation acts as a free gap — `[E .*]*` behaves as `[E | .]*`
        // (run δ1–δ2–δ4 of the paper skips an item before the iteration's
        // first capture). Only applies outside capture groups, where the
        // dot-star produces no output.
        val inner =
          if (max == Int.MaxValue && !captured) collapseGaps(inner0) else inner0
        // Expand to `min` required copies followed by optional copies; an
        // unbounded upper limit becomes a Kleene-star fragment at the end.
        val s = n.newState()
        var cur = s
        for (_ <- 0 until min) {
          val (bs, bf) = build(n, inner, captured, dict)
          n.addEps(cur, bs); cur = bf
        }
        if (max == Int.MaxValue) {
          val (bs, bf) = build(n, inner, captured, dict)
          val f = n.newState()
          n.addEps(cur, bs) // enter loop
          n.addEps(bf, bs)  // repeat
          n.addEps(bf, f)   // leave after an iteration
          n.addEps(cur, f)  // skip loop entirely
          (s, f)
        } else {
          val f = n.newState()
          n.addEps(cur, f) // can stop after the `min` required copies
          for (_ <- min until max) {
            val (bs, bf) = build(n, inner, captured, dict)
            n.addEps(cur, bs)
            cur = bf
            n.addEps(cur, f)
          }
          (s, f)
        }
    }

  /** Is `e` an uncaptured `.*` or `.↑*`? */
  private def isDotStar(e: PatEx): Boolean = e match {
    case PatEx.Repeat(PatEx.Dot(_), 0, Int.MaxValue) => true
    case _                                           => false
  }

  /** Strip uncaptured `.*` elements from the edges of a concatenation under an
    * unbounded repetition and fold them into an alternation with `.` instead.
    */
  private def collapseGaps(e: PatEx): PatEx = e match {
    case PatEx.Concat(es) =>
      val trimmed = es.dropWhile(isDotStar).reverse.dropWhile(isDotStar).reverse
      if (trimmed.length == es.length) e
      else {
        val core =
          if (trimmed.isEmpty) PatEx.Dot(false)
          else if (trimmed.length == 1) trimmed.head
          else PatEx.Concat(trimmed)
        if (trimmed.isEmpty) core else PatEx.Alt(List(core, PatEx.Dot(false)))
      }
    case other => other
  }

  // ------------------------------------------------------------ ε-elimination

  private def eliminateEps(n: EpsNfa): Fst = {
    val epsAdj = Array.fill(n.numStates)(List.empty[Int])
    for ((a, b) <- n.eps) epsAdj(a) ::= b
    val closures = Array.tabulate(n.numStates) { q =>
      val seen = mutable.BitSet(q)
      val stack = mutable.Stack(q)
      while (stack.nonEmpty) {
        val x = stack.pop()
        for (y <- epsAdj(x)) if (!seen(y)) { seen += y; stack.push(y) }
      }
      seen
    }
    val consByState = Array.fill(n.numStates)(List.empty[Transition])
    for (t <- n.cons) consByState(t.from) ::= t

    val isFinal = Array.tabulate(n.numStates)(q => closures(q).exists(n.finals))
    val out = mutable.LinkedHashSet.empty[Transition]
    for (q <- 0 until n.numStates; p <- closures(q); t <- consByState(p))
      out += Transition(q, t.in, t.out, t.to)
    new Fst(n.numStates, n.initial, isFinal, out.toArray)
  }

  // ------------------------------------------------------------ state merging

  /** Merge states with identical (finality, outgoing transitions) until a
    * fixpoint. Sound: two states with the same outgoing behavior accept and
    * produce exactly the same continuations.
    */
  private def mergeStates(fst: Fst): Fst = {
    var transitions = fst.transitions
    var initial = fst.initial
    val alive = mutable.BitSet(0 until fst.numStates: _*)
    var changed = true
    while (changed) {
      changed = false
      val byState = Array.fill(fst.numStates)(mutable.Set.empty[(InPred, OutOp, Int)])
      for (t <- transitions) byState(t.from) += ((t.in, t.out, t.to))
      val sig = mutable.HashMap.empty[(Boolean, Set[(InPred, OutOp, Int)]), Int]
      val remap = mutable.HashMap.empty[Int, Int]
      for (q <- alive.toSeq) {
        val key = (fst.isFinal(q), byState(q).toSet)
        sig.get(key) match {
          case Some(r) => remap(q) = r; changed = true
          case None    => sig(key) = q
        }
      }
      if (changed) {
        remap.keys.foreach(alive -= _)
        def m(q: Int): Int = remap.getOrElse(q, q)
        transitions = transitions
          .map(t => Transition(m(t.from), t.in, t.out, m(t.to)))
          .distinct
        initial = m(initial)
      }
    }
    new Fst(fst.numStates, initial, fst.isFinal, transitions)
  }

  // ------------------------------------------------------------------- prune

  /** Drop states unreachable from the initial state or unable to reach a final
    * state; renumber so the initial state is 0 and ids are dense.
    */
  private def prune(fst: Fst): Fst = {
    // forward reachability
    val fwd = mutable.BitSet(fst.initial)
    val stack = mutable.Stack(fst.initial)
    val adj = Array.fill(fst.numStates)(List.empty[Int])
    val radj = Array.fill(fst.numStates)(List.empty[Int])
    for (t <- fst.transitions) { adj(t.from) ::= t.to; radj(t.to) ::= t.from }
    while (stack.nonEmpty) {
      val q = stack.pop()
      for (r <- adj(q)) if (!fwd(r)) { fwd += r; stack.push(r) }
    }
    // backward reachability from finals
    val bwd = mutable.BitSet.empty
    for (q <- 0 until fst.numStates if fst.isFinal(q)) { bwd += q; stack.push(q) }
    while (stack.nonEmpty) {
      val q = stack.pop()
      for (r <- radj(q)) if (!bwd(r)) { bwd += r; stack.push(r) }
    }
    val alive = fwd & bwd
    if (!alive(fst.initial)) {
      // Degenerate FST that accepts nothing; keep a single non-final state.
      return new Fst(1, 0, Array(fst.isFinal(fst.initial)), Array.empty)
    }
    val order = (fst.initial +: (0 until fst.numStates).filter(q => alive(q) && q != fst.initial)).toArray
    val newId = mutable.HashMap.empty[Int, Int]
    order.zipWithIndex.foreach { case (q, i) => newId(q) = i }
    val ts = fst.transitions
      .filter(t => alive(t.from) && alive(t.to))
      .map(t => Transition(newId(t.from), t.in, t.out, newId(t.to)))
    new Fst(order.length, 0, order.map(fst.isFinal), ts)
  }
}
