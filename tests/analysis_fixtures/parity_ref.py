"""Reference side of the fixture class-parity pair."""


class Reference:
    def find_crossing(self, values, threshold, start=0):
        for index in range(start, len(values)):
            if values[index] > threshold:
                return index
        return -1

    def run_lengths(self, values):
        return [1 for _ in values]
