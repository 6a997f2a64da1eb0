"""Trips parity-pair once: ``find_crossing`` renamed a parameter."""


class Twin:
    def find_crossing(self, values, limit, start=0):
        for index in range(start, len(values)):
            if values[index] > limit:
                return index
        return -1

    def run_lengths(self, values):
        return [1 for _ in values]
