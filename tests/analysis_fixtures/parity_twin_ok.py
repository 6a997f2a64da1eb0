"""Quiet under parity-pair: signatures match; the twin may add a trailing
defaulted knob, extra public methods and private helpers."""


class Twin:
    def find_crossing(self, values, threshold, start=0, fast=True):
        return self._scan(values, threshold, start) if fast else -1

    def run_lengths(self, values):
        return [1 for _ in values]

    def total(self, values):
        return sum(self.run_lengths(values))

    def _scan(self, values, threshold, start):
        for index in range(start, len(values)):
            if values[index] > threshold:
                return index
        return -1
