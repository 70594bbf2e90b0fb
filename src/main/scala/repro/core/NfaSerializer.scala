package repro.core

import scala.collection.mutable

/** Compressed NFA serialization for the D-CAND shuffle (Sec. VI-A).
  *
  * Transitions are written in depth-first visit order with the paper's two
  * compression rules: (1) a transition with no explicit source starts at the
  * target of the previous transition; (2) a transition with no explicit target
  * ends in a fresh state. Additionally a FINAL marker flags a fresh final
  * state on first visit. The token stream is varint-encoded; label sets are
  * delta-encoded.
  *
  * Token tags: 0 = label (count, first item, gaps...), 1 = explicit source
  * (state id), 2 = explicit target (state id), 3 = final marker.
  */
object NfaSerializer {

  /** Byte-array key with value semantics, usable in `reduceByKey`. */
  final class Bytes(val bytes: Array[Byte]) extends Serializable {
    override def equals(o: Any): Boolean = o match {
      case b: Bytes => java.util.Arrays.equals(bytes, b.bytes)
      case _        => false
    }
    override val hashCode: Int = java.util.Arrays.hashCode(bytes)
    def size: Int = bytes.length
  }

  private final val TagLabel = 0
  private final val TagSrc = 1
  private final val TagTgt = 2
  private final val TagFinal = 3

  def serialize(nfa: Nfa): Bytes = {
    val tokens = new mutable.ArrayBuilder.ofInt
    val visitId = Array.fill(nfa.numStates)(-1) // original state -> DFS id
    visitId(0) = 0
    var visited = 1
    var cursor = 0 // DFS id of the previous transition's target (start: root)

    def dfs(q: Int): Unit = {
      val qid = visitId(q)
      val es = nfa.edges(q)
      var j = 0
      while (j < es.length) {
        val label = nfa.labels(es(j))
        val t = es(j + 1)
        j += 2
        if (cursor != qid) { tokens += TagSrc; tokens += qid }
        tokens += TagLabel
        tokens += label.length
        var prev = 0
        for (w <- label) { tokens += (w - prev); prev = w }
        if (visitId(t) >= 0) {
          tokens += TagTgt; tokens += visitId(t)
          cursor = visitId(t)
        } else {
          val tid = visited
          visitId(t) = tid
          visited += 1
          if (nfa.isFinal(t)) tokens += TagFinal
          cursor = tid
          dfs(t)
          // cursor stays wherever the subtree left it — the deserializer
          // performs the identical update, so implicit sources stay in sync.
        }
      }
    }
    dfs(0)
    new Bytes(varints(tokens.result()))
  }

  /** The NFA of `b`; labels are interned on decode, so equal sets share an id. */
  def deserialize(b: Bytes): Nfa = {
    val tokens = unvarints(b.bytes)
    val labels = new LabelInterner
    val finals = mutable.ArrayBuffer(false) // state 0 = root, never final here
    val edges = mutable.ArrayBuffer(new mutable.ArrayBuilder.ofInt)
    var cursor = 0
    var i = 0
    def newState(isFinal: Boolean): Int = {
      finals += isFinal
      edges += new mutable.ArrayBuilder.ofInt
      finals.length - 1
    }
    while (i < tokens.length) {
      var src = cursor
      if (tokens(i) == TagSrc) { src = tokens(i + 1); i += 2 }
      require(tokens(i) == TagLabel, s"expected label token at $i")
      val len = tokens(i + 1)
      i += 2
      for (j <- i + 1 until i + len) tokens(j) += tokens(j - 1) // gaps to items, in place
      val label = labels.intern(tokens, i, i + len)
      i += len
      val tgt =
        if (i < tokens.length && tokens(i) == TagTgt) { val t = tokens(i + 1); i += 2; t }
        else if (i < tokens.length && tokens(i) == TagFinal) { i += 1; newState(true) }
        else newState(false)
      edges(src) += label += tgt
      cursor = tgt
    }
    new Nfa(finals.toArray, edges.map(_.result()).toArray, labels.table)
  }

  // ------------------------------------------------------------------ varint

  private def varints(xs: Array[Int]): Array[Byte] = {
    val out = new mutable.ArrayBuilder.ofByte
    for (x0 <- xs) {
      var x = x0
      require(x >= 0, "varint requires non-negative tokens")
      while ((x & ~0x7F) != 0) { out += ((x & 0x7F) | 0x80).toByte; x >>>= 7 }
      out += x.toByte
    }
    out.result()
  }

  private def unvarints(bs: Array[Byte]): Array[Int] = {
    val out = new mutable.ArrayBuilder.ofInt
    var i = 0
    while (i < bs.length) {
      var x = 0; var shift = 0; var more = true
      while (more) {
        val b = bs(i); i += 1
        x |= (b & 0x7F) << shift
        shift += 7
        more = (b & 0x80) != 0
      }
      out += x
    }
    out.result()
  }
}
