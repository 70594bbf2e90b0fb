package repro.core

import scala.collection.mutable

/** Unsigned varints, the one byte encoding of D-SEQ's shuffle records and of
  * [[NfaSerializer]]'s token stream: 7 bits per byte, low bits first, the high
  * bit set on every byte but a value's last. A value below `0x80` takes one
  * byte, so small fids (the f-list gives frequent items the smallest) and NFA
  * tags stay one byte each.
  */
private[core] object Varint {

  /** Appends `x`, which must be `>= 0`, to `out`. */
  def put(out: mutable.ArrayBuilder.ofByte, x: Int): Unit = {
    require(x >= 0, "varint requires non-negative values")
    var v = x
    while ((v & ~0x7F) != 0) { out += ((v & 0x7F) | 0x80).toByte; v >>>= 7 }
    out += v.toByte
  }

  /** The varints of `xs`, all `>= 0`, back to back. */
  def encode(xs: Array[Int]): Array[Byte] = {
    val out = new mutable.ArrayBuilder.ofByte
    out.sizeHint(xs.length)
    var i = 0
    while (i < xs.length) { put(out, xs(i)); i += 1 }
    out.result()
  }

  /** The values [[encode]] wrote to `bs`. */
  def decode(bs: Array[Byte]): Array[Int] = {
    var n = 0
    var i = 0
    while (i < bs.length) { if (bs(i) >= 0) n += 1; i += 1 } // a value's last byte is >= 0
    val xs = new Array[Int](n)
    val in = new Reader(bs)
    i = 0
    while (i < n) { xs(i) = in.next(); i += 1 }
    xs
  }

  /** Reads the varints of `bs` in place. A value below `0x80`, such as an
    * [[NfaSerializer]] tag, is one byte, which `peekTag` reads without moving.
    */
  final class Reader(bs: Array[Byte]) {
    var pos = 0
    def hasNext: Boolean = pos < bs.length
    def peekTag: Int = bs(pos)
    def skipTag(): Unit = pos += 1
    def next(): Int = {
      var x = 0
      var shift = 0
      var b = 0x80
      while ((b & 0x80) != 0) {
        b = bs(pos)
        pos += 1
        x |= (b & 0x7F) << shift
        shift += 7
      }
      x
    }
  }
}
