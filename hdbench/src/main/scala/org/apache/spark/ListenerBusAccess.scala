package org.apache.spark

/** The listener bus delivers task events asynchronously; the benchmark
  * drains it after a build so its own listener has seen every task.
  */
object ListenerBusAccess {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
