"""Empty: the blow-up chart facts are rows of ``verification.FACTS``, and
``verification.image`` restricts a map to a chart's exceptional divisor.
The module stays only because ``bench/run.py`` imports it when it times the
package's imports; it goes when that list drops it."""
