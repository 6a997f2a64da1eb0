"""Trips parity-pair once: the twin lacks the public ``run_lengths``."""


class Twin:
    def find_crossing(self, values, threshold, start=0):
        for index in range(start, len(values)):
            if values[index] > threshold:
                return index
        return -1
