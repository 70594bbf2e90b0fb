package repro.fst

/** An enumeration cap was hit: one input sequence has too many accepting runs,
  * candidate subsequences or D-CAND trie nodes. This is the exponential
  * blow-up under which the paper's NAIVE and D-CAND run out of memory;
  * callers that report a capped input catch exactly this type.
  */
final class BlowUpException(message: String) extends RuntimeException(message)

object BlowUpException {
  /** Is `e`, or any exception in its cause chain, a blow-up? Spark wraps a
    * failed task's exception in its own.
    */
  def inCauseChain(e: Throwable): Boolean =
    e != null && (e.isInstanceOf[BlowUpException] || inCauseChain(e.getCause))
}
