package repro.core

import scala.collection.mutable

/** Compressed NFA serialization for the D-CAND shuffle (Sec. VI-A).
  *
  * Transitions are written in depth-first visit order with the paper's two
  * compression rules: (1) a transition with no explicit source starts at the
  * target of the previous transition; (2) a transition with no explicit target
  * ends in a fresh state. Additionally a FINAL marker flags a fresh final
  * state on first visit. The token stream is [[Varint]]-encoded; label sets are
  * delta-encoded, and each label is written in full only the first time the
  * NFA uses it: a repeat names it by its index among the NFA's labels, in
  * first-write order.
  *
  * Token tags: 0 = label (count, first item, gaps...), 1 = explicit source
  * (state id), 2 = explicit target (state id), 3 = final marker, 4 = label
  * back-reference (index of a label written in full earlier).
  */
object NfaSerializer {

  /** Byte-array key with value semantics; its hash is cached on first use, not serialized. */
  final class Bytes(val bytes: Array[Byte]) extends Serializable {
    override def equals(o: Any): Boolean = o match {
      case b: Bytes => java.util.Arrays.equals(bytes, b.bytes)
      case _        => false
    }
    @transient private lazy val hash = java.util.Arrays.hashCode(bytes)
    override def hashCode: Int = hash
    def size: Int = bytes.length
  }

  private final val TagLabel = 0
  private final val TagSrc = 1
  private final val TagTgt = 2
  private final val TagFinal = 3
  private final val TagLabelRef = 4

  def serialize(nfa: Nfa): Bytes = {
    val out = new mutable.ArrayBuilder.ofByte
    def put(token: Int): Unit = Varint.put(out, token)
    val visitId = new Array[Int](nfa.numStates) // original state -> DFS id + 1, or 0 if unvisited
    visitId(0) = 1
    var visited = 1
    var cursor = 0 // DFS id of the previous transition's target (start: root)
    val labelIndex = new Array[Int](nfa.labels.length) // label id -> first-write index + 1, or 0
    var written = 0

    def dfs(q: Int): Unit = {
      val qid = visitId(q) - 1
      val es = nfa.edges(q)
      var j = 0
      while (j < es.length) {
        val id = es(j)
        val t = es(j + 1)
        j += 2
        if (cursor != qid) { put(TagSrc); put(qid) }
        if (labelIndex(id) > 0) { put(TagLabelRef); put(labelIndex(id) - 1) }
        else {
          written += 1
          labelIndex(id) = written
          val label = nfa.labels(id)
          put(TagLabel)
          put(label.length)
          var prev = 0
          for (w <- label) { put(w - prev); prev = w }
        }
        if (visitId(t) > 0) {
          cursor = visitId(t) - 1
          put(TagTgt); put(cursor)
        } else {
          val tid = visited
          visitId(t) = tid + 1
          visited += 1
          if (nfa.isFinal(t)) put(TagFinal)
          cursor = tid
          dfs(t)
          // cursor stays wherever the subtree left it — the deserializer
          // performs the identical update, so implicit sources stay in sync.
        }
      }
    }
    dfs(0)
    new Bytes(out.result())
  }

  /** The NFA of `b`; labels are interned on decode, so equal sets share an id.
    * A back-reference takes the id its label got when it was written in full.
    *
    * One pass reads the varints in place and collects each edge as a
    * `src, labelId, target` triple in stream order; one counting pass then
    * buckets the triples into each state's exact-size edge array.
    */
  def deserialize(b: Bytes): Nfa = {
    val in = new Varint.Reader(b.bytes)
    val labels = new SliceInterner
    var written = new Array[Int](8) // label ids in first-write order
    var numWritten = 0
    val finals = new mutable.ArrayBuilder.ofBoolean
    finals += false // state 0 = root, never final here
    var triples = new Array[Int](48)
    var used = 0
    var label = new Array[Int](8)
    var cursor = 0
    while (in.hasNext) {
      var src = cursor
      if (in.peekTag == TagSrc) { in.skipTag(); src = in.next() }
      val id =
        if (in.hasNext && in.peekTag == TagLabelRef) {
          in.skipTag()
          val at = in.pos
          val i = in.next()
          require(i >= 0 && i < numWritten,
            s"label back-reference $i at byte $at, but only $numWritten labels were written before it")
          written(i)
        } else {
          require(in.hasNext && in.peekTag == TagLabel, s"expected label token at byte ${in.pos}")
          in.skipTag()
          val len = in.next()
          if (len > label.length) label = new Array[Int](math.max(len, 2 * label.length))
          var prev = 0
          var j = 0
          while (j < len) { prev += in.next(); label(j) = prev; j += 1 } // gaps to items
          val interned = labels.intern(label, 0, len)
          if (numWritten == written.length) written = java.util.Arrays.copyOf(written, 2 * numWritten)
          written(numWritten) = interned
          numWritten += 1
          interned
        }
      val tgt =
        if (in.hasNext && in.peekTag == TagTgt) { in.skipTag(); in.next() }
        else {
          val fin = in.hasNext && in.peekTag == TagFinal
          if (fin) in.skipTag()
          finals += fin
          finals.length - 1
        }
      if (used + 3 > triples.length) triples = java.util.Arrays.copyOf(triples, 2 * triples.length)
      triples(used) = src
      triples(used + 1) = id
      triples(used + 2) = tgt
      used += 3
      cursor = tgt
    }
    val numStates = finals.length
    val fill = new Array[Int](numStates) // per state: edge ints, then the next free slot
    var i = 0
    while (i < used) { fill(triples(i)) += 2; i += 3 }
    val edges = new Array[Array[Int]](numStates)
    var q = 0
    while (q < numStates) { edges(q) = new Array[Int](fill(q)); fill(q) = 0; q += 1 }
    i = 0
    while (i < used) {
      val es = edges(triples(i))
      val f = fill(triples(i))
      es(f) = triples(i + 1)
      es(f + 1) = triples(i + 2)
      fill(triples(i)) = f + 2
      i += 3
    }
    new Nfa(finals.result(), edges, labels.table)
  }
}
